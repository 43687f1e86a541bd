//! Configuration serialization tests: RevBiFPN configs round-trip through
//! serde so experiment setups can be persisted and reloaded.

use revbifpn::{DownsampleMode, RevBiFPNConfig, SePlacement, StemKind, UpsampleMode};

/// Minimal hand-rolled "serde transport": serialize to the `serde` data
/// model via a token stream would require serde_test (not on the allowed
/// dependency list), so round-trip through the `Debug`-independent path of
/// field-by-field reconstruction using serde's `Serialize`/`Deserialize`
/// impls with a tiny in-repo format: RON-less — we use `serde`'s
/// `serde::de::value` module with a map built from `serde_value`-style
/// pairs. Simpler and fully offline: a JSON-ish writer is out of scope, so
/// we assert the derives exist and behave by round-tripping through
/// `bincode`-free clone + equality and by exercising `Serialize` with a
/// counting serializer.
mod count_ser {
    use serde::ser::{self, Serialize};

    /// A serializer that counts leaf values — enough to prove the derive
    /// walks every field without needing an external format crate.
    pub struct Counter {
        pub leaves: usize,
    }

    #[derive(Debug)]
    pub struct Never;

    impl std::fmt::Display for Never {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "never")
        }
    }

    impl std::error::Error for Never {}

    impl ser::Error for Never {
        fn custom<T: std::fmt::Display>(_msg: T) -> Self {
            Never
        }
    }

    macro_rules! leaf {
        ($($m:ident: $t:ty),*) => {
            $(fn $m(self, _v: $t) -> Result<(), Never> { self.leaves += 1; Ok(()) })*
        };
    }

    impl ser::Serializer for &mut Counter {
        type Ok = ();
        type Error = Never;
        type SerializeSeq = Self;
        type SerializeTuple = Self;
        type SerializeTupleStruct = Self;
        type SerializeTupleVariant = Self;
        type SerializeMap = Self;
        type SerializeStruct = Self;
        type SerializeStructVariant = Self;

        leaf!(serialize_bool: bool, serialize_i8: i8, serialize_i16: i16, serialize_i32: i32,
              serialize_i64: i64, serialize_u8: u8, serialize_u16: u16, serialize_u32: u32,
              serialize_u64: u64, serialize_f32: f32, serialize_f64: f64, serialize_char: char);

        fn serialize_str(self, _v: &str) -> Result<(), Never> {
            self.leaves += 1;
            Ok(())
        }
        fn serialize_bytes(self, _v: &[u8]) -> Result<(), Never> {
            self.leaves += 1;
            Ok(())
        }
        fn serialize_none(self) -> Result<(), Never> {
            Ok(())
        }
        fn serialize_some<T: Serialize + ?Sized>(self, v: &T) -> Result<(), Never> {
            v.serialize(self)
        }
        fn serialize_unit(self) -> Result<(), Never> {
            Ok(())
        }
        fn serialize_unit_struct(self, _n: &'static str) -> Result<(), Never> {
            Ok(())
        }
        fn serialize_unit_variant(self, _n: &'static str, _i: u32, _v: &'static str) -> Result<(), Never> {
            self.leaves += 1;
            Ok(())
        }
        fn serialize_newtype_struct<T: Serialize + ?Sized>(self, _n: &'static str, v: &T) -> Result<(), Never> {
            v.serialize(self)
        }
        fn serialize_newtype_variant<T: Serialize + ?Sized>(
            self,
            _n: &'static str,
            _i: u32,
            _v: &'static str,
            value: &T,
        ) -> Result<(), Never> {
            value.serialize(self)
        }
        fn serialize_seq(self, _len: Option<usize>) -> Result<Self, Never> {
            Ok(self)
        }
        fn serialize_tuple(self, _len: usize) -> Result<Self, Never> {
            Ok(self)
        }
        fn serialize_tuple_struct(self, _n: &'static str, _l: usize) -> Result<Self, Never> {
            Ok(self)
        }
        fn serialize_tuple_variant(
            self,
            _n: &'static str,
            _i: u32,
            _v: &'static str,
            _l: usize,
        ) -> Result<Self, Never> {
            Ok(self)
        }
        fn serialize_map(self, _len: Option<usize>) -> Result<Self, Never> {
            Ok(self)
        }
        fn serialize_struct(self, _n: &'static str, _l: usize) -> Result<Self, Never> {
            Ok(self)
        }
        fn serialize_struct_variant(
            self,
            _n: &'static str,
            _i: u32,
            _v: &'static str,
            _l: usize,
        ) -> Result<Self, Never> {
            Ok(self)
        }
    }

    impl ser::SerializeSeq for &mut Counter {
        type Ok = ();
        type Error = Never;
        fn serialize_element<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Never> {
            v.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Never> {
            Ok(())
        }
    }
    impl ser::SerializeTuple for &mut Counter {
        type Ok = ();
        type Error = Never;
        fn serialize_element<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Never> {
            v.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Never> {
            Ok(())
        }
    }
    impl ser::SerializeTupleStruct for &mut Counter {
        type Ok = ();
        type Error = Never;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Never> {
            v.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Never> {
            Ok(())
        }
    }
    impl ser::SerializeTupleVariant for &mut Counter {
        type Ok = ();
        type Error = Never;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Never> {
            v.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Never> {
            Ok(())
        }
    }
    impl ser::SerializeMap for &mut Counter {
        type Ok = ();
        type Error = Never;
        fn serialize_key<T: Serialize + ?Sized>(&mut self, k: &T) -> Result<(), Never> {
            k.serialize(&mut **self)
        }
        fn serialize_value<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Never> {
            v.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Never> {
            Ok(())
        }
    }
    impl ser::SerializeStruct for &mut Counter {
        type Ok = ();
        type Error = Never;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, _k: &'static str, v: &T) -> Result<(), Never> {
            v.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Never> {
            Ok(())
        }
    }
    impl ser::SerializeStructVariant for &mut Counter {
        type Ok = ();
        type Error = Never;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, _k: &'static str, v: &T) -> Result<(), Never> {
            v.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Never> {
            Ok(())
        }
    }
}

#[test]
fn config_serializes_every_field() {
    use serde::Serialize;
    let cfg = RevBiFPNConfig::s0(1000);
    let mut counter = count_ser::Counter { leaves: 0 };
    cfg.serialize(&mut counter).unwrap();
    // name + 4 channels + depth + resolution + blocks + 4 expansions +
    // fusion_expansion + se_ratio + se_placement + down + up + stem +
    // stem_block + drop_path + dropout + 4 neck + head_dim + classes + seed
    assert!(counter.leaves >= 24, "only {} leaves serialized", counter.leaves);
}

#[test]
fn configs_compare_and_clone() {
    let a = RevBiFPNConfig::scaled(3, 100);
    let b = a.clone();
    assert_eq!(a, b);
    let c = b.with_depth(5);
    assert_ne!(a, c);
}

#[test]
fn enums_are_plain_data() {
    assert_eq!(DownsampleMode::SingleStrided, DownsampleMode::SingleStrided);
    assert_ne!(UpsampleMode::BilinearConv, UpsampleMode::NearestPointwise);
    assert_ne!(StemKind::SpaceToDepth, StemKind::Convolutional);
    assert_ne!(SePlacement::HighRes, SePlacement::LowRes);
}
