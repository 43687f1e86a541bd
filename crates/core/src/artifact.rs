//! `RBFNFRZ1` serialization for whole frozen classifiers.
//!
//! [`save_classifier_artifact`] writes a compiled [`FrozenClassifier`]
//! (either precision tier) into a single crash-safe artifact file;
//! [`load_classifier_artifact`] maps it back, sharing panel sections with
//! the page cache, so a serving worker cold-starts without copying or
//! re-packing any weights. The container machinery (header, CRCs, atomic
//! write, fault injection) lives in [`revbifpn_nn::artifact`]; this module
//! contributes the model-level structure codec: the [`RevBiFPNConfig`]
//! (manually field-by-field — the artifact format is independent of any
//! serde wire format), the stem, the reversible body (via
//! [`revbifpn_rev::artifact`]), the neck, and the classification head.

use crate::config::{
    DownsampleMode, RevBiFPNConfig, SePlacement, StemKind, UpsampleMode,
};
use crate::freeze::{FrozenBackbone, FrozenClassifier, FrozenClsHead, FrozenStem};
use revbifpn_nn::artifact::{
    decode_layer, encode_layer, ArtifactReader, ArtifactWriter, TreeReader,
};
use revbifpn_nn::FrozenTree;
use revbifpn_rev::artifact::{decode_sequence, encode_sequence};
use std::io;
use std::path::Path;

/// Artifact flag bit: the model is the int8-quantized tier.
pub const FLAG_INT8: u32 = 1;
/// Artifact flag bit: the payload is a classifier (vs. a detector).
pub const FLAG_CLASSIFIER: u32 = 2;

fn inv(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ------------------------------------------------------------ config codec

fn put_usizes(w: &mut ArtifactWriter, v: &[usize]) {
    w.put_u32(v.len() as u32);
    for &x in v {
        w.put_u64(x as u64);
    }
}

fn get_usizes(r: &mut TreeReader<'_>) -> io::Result<Vec<usize>> {
    let n = r.get_u32()? as usize;
    if n > 1 << 16 {
        return Err(inv("unreasonable array length in config"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(usize::try_from(r.get_u64()?).map_err(|_| inv("usize overflow in config"))?);
    }
    Ok(out)
}

fn put_f32s_exact(w: &mut ArtifactWriter, v: &[f32]) {
    w.put_u32(v.len() as u32);
    for &x in v {
        w.put_f32(x);
    }
}

fn get_f32s_exact(r: &mut TreeReader<'_>) -> io::Result<Vec<f32>> {
    let n = r.get_u32()? as usize;
    if n > 1 << 16 {
        return Err(inv("unreasonable array length in config"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_f32()?);
    }
    Ok(out)
}

/// Serializes a [`RevBiFPNConfig`] into the structure stream.
pub fn encode_config(w: &mut ArtifactWriter, cfg: &RevBiFPNConfig) {
    w.put_str(&cfg.name);
    put_usizes(w, &cfg.channels);
    w.put_u64(cfg.depth as u64);
    w.put_u64(cfg.resolution as u64);
    w.put_u64(cfg.blocks_per_stage as u64);
    put_f32s_exact(w, &cfg.expansion);
    w.put_f32(cfg.fusion_expansion);
    w.put_f32(cfg.se_ratio);
    w.put_u8(match cfg.se_placement {
        SePlacement::None => 0,
        SePlacement::LowRes => 1,
        SePlacement::HighRes => 2,
    });
    w.put_u8(match cfg.down_mode {
        DownsampleMode::SingleStrided => 0,
        DownsampleMode::Chained => 1,
    });
    w.put_u8(match cfg.up_mode {
        UpsampleMode::BilinearConv => 0,
        UpsampleMode::NearestPointwise => 1,
    });
    w.put_u8(match cfg.stem {
        StemKind::SpaceToDepth => 0,
        StemKind::Convolutional => 1,
    });
    w.put_u64(cfg.stem_block as u64);
    w.put_f32(cfg.drop_path);
    w.put_f32(cfg.dropout);
    put_usizes(w, &cfg.neck_channels);
    w.put_u64(cfg.head_dim as u64);
    w.put_u64(cfg.num_classes as u64);
    w.put_u64(cfg.seed);
}

/// Deserializes a [`RevBiFPNConfig`] and re-validates it.
pub fn decode_config(r: &mut TreeReader<'_>) -> io::Result<RevBiFPNConfig> {
    let get_usize =
        |r: &mut TreeReader<'_>| -> io::Result<usize> {
            usize::try_from(r.get_u64()?).map_err(|_| inv("usize overflow in config"))
        };
    let name = r.get_str()?;
    let channels = get_usizes(r)?;
    let depth = get_usize(r)?;
    let resolution = get_usize(r)?;
    let blocks_per_stage = get_usize(r)?;
    let expansion = get_f32s_exact(r)?;
    let fusion_expansion = r.get_f32()?;
    let se_ratio = r.get_f32()?;
    let se_placement = match r.get_u8()? {
        0 => SePlacement::None,
        1 => SePlacement::LowRes,
        2 => SePlacement::HighRes,
        _ => return Err(inv("bad SE placement tag")),
    };
    let down_mode = match r.get_u8()? {
        0 => DownsampleMode::SingleStrided,
        1 => DownsampleMode::Chained,
        _ => return Err(inv("bad downsample mode tag")),
    };
    let up_mode = match r.get_u8()? {
        0 => UpsampleMode::BilinearConv,
        1 => UpsampleMode::NearestPointwise,
        _ => return Err(inv("bad upsample mode tag")),
    };
    let stem = match r.get_u8()? {
        0 => StemKind::SpaceToDepth,
        1 => StemKind::Convolutional,
        _ => return Err(inv("bad stem kind tag")),
    };
    let stem_block = get_usize(r)?;
    let drop_path = r.get_f32()?;
    let dropout = r.get_f32()?;
    let neck_channels = get_usizes(r)?;
    let head_dim = get_usize(r)?;
    let num_classes = get_usize(r)?;
    let seed = r.get_u64()?;
    let cfg = RevBiFPNConfig {
        name,
        channels,
        depth,
        resolution,
        blocks_per_stage,
        expansion,
        fusion_expansion,
        se_ratio,
        se_placement,
        down_mode,
        up_mode,
        stem,
        stem_block,
        drop_path,
        dropout,
        neck_channels,
        head_dim,
        num_classes,
        seed,
    };
    cfg.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("invalid config: {e:?}")))?;
    Ok(cfg)
}

// ------------------------------------------------------------- model codec

fn encode_stem(w: &mut ArtifactWriter, stem: &FrozenStem) -> io::Result<()> {
    match stem {
        FrozenStem::SpaceToDepth { block, c0, image_channels } => {
            w.put_u8(0);
            w.put_u32(*block as u32);
            w.put_u32(*c0 as u32);
            w.put_u32(*image_channels as u32);
        }
        FrozenStem::Convolutional { body, c0 } => {
            w.put_u8(1);
            w.put_u32(*c0 as u32);
            encode_layer(w, body)?;
        }
    }
    Ok(())
}

fn decode_stem(r: &mut TreeReader<'_>) -> io::Result<FrozenStem> {
    Ok(match r.get_u8()? {
        0 => {
            let block = r.get_u32()? as usize;
            let c0 = r.get_u32()? as usize;
            let image_channels = r.get_u32()? as usize;
            if block == 0 || c0 == 0 {
                return Err(inv("degenerate SpaceToDepth stem"));
            }
            FrozenStem::SpaceToDepth { block, c0, image_channels }
        }
        1 => {
            let c0 = r.get_u32()? as usize;
            let body = Box::new(decode_layer(r)?);
            FrozenStem::Convolutional { body, c0 }
        }
        _ => return Err(inv("bad frozen stem tag")),
    })
}

/// Serializes a compiled [`FrozenBackbone`] (config + stem + reversible
/// body) into `w` — shared by the classifier codec here and the detector
/// codec in `revbifpn-detect`.
///
/// # Errors
///
/// Fails on a backbone containing an uncompiled conv.
pub fn encode_backbone(w: &mut ArtifactWriter, backbone: &FrozenBackbone) -> io::Result<()> {
    encode_config(w, &backbone.cfg);
    encode_stem(w, &backbone.stem)?;
    encode_sequence(w, &backbone.body)
}

/// Deserializes a [`FrozenBackbone`] written by [`encode_backbone`].
pub fn decode_backbone(r: &mut TreeReader<'_>) -> io::Result<FrozenBackbone> {
    let cfg = decode_config(r)?;
    let stem = decode_stem(r)?;
    let body = decode_sequence(r)?;
    Ok(FrozenBackbone { cfg, stem, body })
}

/// Serializes a compiled [`FrozenClassifier`] into `w`.
///
/// # Errors
///
/// Fails on a model containing an uncompiled conv.
pub fn encode_classifier(w: &mut ArtifactWriter, model: &FrozenClassifier) -> io::Result<()> {
    encode_backbone(w, &model.backbone)?;
    w.put_u32(model.neck.len() as u32);
    for l in &model.neck {
        encode_layer(w, l)?;
    }
    w.put_u32(model.head.num_streams as u32);
    w.put_u32(model.head.downs.len() as u32);
    for l in &model.head.downs {
        encode_layer(w, l)?;
    }
    encode_layer(w, &model.head.tail)
}

/// Deserializes a [`FrozenClassifier`] written by [`encode_classifier`].
pub fn decode_classifier(r: &mut TreeReader<'_>) -> io::Result<FrozenClassifier> {
    let backbone = decode_backbone(r)?;
    let n_neck = r.get_u32()? as usize;
    if n_neck > 1 << 16 {
        return Err(inv("unreasonable neck length"));
    }
    let mut neck = Vec::with_capacity(n_neck);
    for _ in 0..n_neck {
        neck.push(decode_layer(r)?);
    }
    let num_streams = r.get_u32()? as usize;
    let n_downs = r.get_u32()? as usize;
    if n_downs > 1 << 16 {
        return Err(inv("unreasonable head depth"));
    }
    let mut downs = Vec::with_capacity(n_downs);
    for _ in 0..n_downs {
        downs.push(decode_layer(r)?);
    }
    let tail = decode_layer(r)?;
    if num_streams != backbone.cfg.num_streams() || neck.len() != num_streams {
        return Err(inv("stream counts disagree between config and payload"));
    }
    Ok(FrozenClassifier { backbone, neck, head: FrozenClsHead { downs, tail, num_streams } })
}

/// Computes the artifact flags for `model` (precision tier + kind).
pub fn classifier_flags(model: &FrozenClassifier) -> u32 {
    FLAG_CLASSIFIER | if model.is_quantized() { FLAG_INT8 } else { 0 }
}

/// Serializes `model` and writes it to `path` atomically and durably (see
/// [`revbifpn_nn::artifact::write_atomic`]).
///
/// # Errors
///
/// Propagates serialization and I/O errors; unless the failure happened
/// after the rename, an existing artifact at `path` is left untouched.
pub fn save_classifier_artifact(path: &Path, model: &FrozenClassifier) -> io::Result<()> {
    let mut w = ArtifactWriter::new(classifier_flags(model));
    encode_classifier(&mut w, model)?;
    w.save(path)
}

/// Opens, validates, and decodes a classifier artifact. `prefer_map`
/// requests mmap backing (falling back to a copy load when unavailable);
/// the returned reader reports which path was taken and the artifact
/// digest for health reporting.
///
/// Header/TOC/structure CRCs are verified here; **section payload CRCs are
/// not** — run [`ArtifactReader::verify_sections`] on the returned reader
/// before trusting an artifact of unknown provenance (hot reload does).
///
/// # Errors
///
/// `InvalidData` for any structural, CRC, layout-fingerprint, or
/// model-kind mismatch; I/O errors from the filesystem.
pub fn load_classifier_artifact(
    path: &Path,
    prefer_map: bool,
) -> io::Result<(FrozenClassifier, ArtifactReader)> {
    let reader = ArtifactReader::open(path, prefer_map)?;
    if reader.flags() & FLAG_CLASSIFIER == 0 {
        return Err(inv("artifact does not contain a classifier"));
    }
    let mut cur = reader.cursor();
    let model = decode_classifier(&mut cur)?;
    if cur.remaining() != 0 {
        return Err(inv("trailing bytes after classifier payload"));
    }
    let quantized = reader.flags() & FLAG_INT8 != 0;
    if quantized != model.is_quantized() {
        return Err(inv("precision flag disagrees with payload"));
    }
    Ok((model, reader))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RevBiFPNClassifier;
    use crate::RevBiFPNConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn_tensor::{Shape, Tensor};
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("revbifpn_core_art_{tag}_{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn tiny_model() -> (RevBiFPNClassifier, Tensor) {
        let cfg = RevBiFPNConfig::tiny(7);
        let mut model = RevBiFPNClassifier::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn(Shape::new(1, 3, cfg.resolution, cfg.resolution), 1.0, &mut rng);
        // Populate BN running stats so freezing is meaningful.
        let _ = model.forward(&x, crate::RunMode::TrainConventional);
        model.clear_cache();
        (model, x)
    }

    #[test]
    fn classifier_roundtrips_bitwise_f32_and_int8() {
        let dir = tmp_dir("rt");
        let (model, x) = tiny_model();
        for int8 in [false, true] {
            let frozen =
                if int8 { model.freeze_int8().unwrap() } else { model.freeze().unwrap() };
            let want = frozen.forward(&x);
            let path = dir.join(format!("m_{int8}.frz"));
            save_classifier_artifact(&path, &frozen).unwrap();
            for prefer_map in [true, false] {
                let (loaded, reader) = load_classifier_artifact(&path, prefer_map).unwrap();
                reader.verify_sections().unwrap();
                assert_eq!(reader.flags() & FLAG_INT8 != 0, int8);
                assert_eq!(loaded.is_quantized(), int8);
                assert_eq!(
                    loaded.forward(&x),
                    want,
                    "mapped={} int8={int8}: artifact forward must be bitwise equal",
                    reader.is_mapped()
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_codec_roundtrips() {
        let cfg = RevBiFPNConfig::tiny(7);
        let mut w = ArtifactWriter::new(0);
        encode_config(&mut w, &cfg);
        let r = ArtifactReader::from_bytes(
            revbifpn_tensor::SharedBytes::from_vec(w.finish()),
            false,
        )
        .unwrap();
        let got = decode_config(&mut r.cursor()).unwrap();
        assert_eq!(got, cfg);
    }

    #[test]
    fn wrong_kind_flag_is_rejected() {
        let dir = tmp_dir("kind");
        let (model, _) = tiny_model();
        let frozen = model.freeze().unwrap();
        let mut w = ArtifactWriter::new(0); // missing FLAG_CLASSIFIER
        encode_classifier(&mut w, &frozen).unwrap();
        let path = dir.join("k.frz");
        w.save(&path).unwrap();
        assert!(load_classifier_artifact(&path, true).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
