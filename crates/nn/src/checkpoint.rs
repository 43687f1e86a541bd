//! Crash-safe checkpointing: save/load named f32 blobs (and every parameter
//! reachable through a `visit_params`-style visitor) to a versioned,
//! integrity-checked binary format.
//!
//! # Format v2 (`RBFNCKP2`)
//!
//! ```text
//! magic    8 bytes  b"RBFNCKP2"
//! version  4 bytes  u32 LE, currently 2
//! count    8 bytes  u64 LE, number of blobs
//! blob * count:
//!   name_len  8 bytes  u64 LE
//!   name      name_len bytes, UTF-8
//!   numel     8 bytes  u64 LE
//!   payload   numel * 4 bytes, f32 LE
//!   crc       4 bytes  u32 LE, CRC32 (IEEE) over name ‖ numel LE ‖ payload
//! ```
//!
//! Robustness properties:
//!
//! - **Atomic writes**: data is written to `<path>.tmp`, flushed and fsynced,
//!   then renamed over `path` (with a best-effort directory fsync), so a
//!   crash mid-write can never leave a half-written file at `path`.
//! - **Per-blob CRC32** over the name, element count, and payload: any
//!   single-byte corruption is rejected at load time.
//! - **Bounds-checked parsing** from an in-memory buffer: corrupt length
//!   fields are rejected before any allocation is sized from them, and
//!   trailing garbage after the last blob is an error.
//! - The *entire* file is parsed and CRC-verified before any model mutation,
//!   so a corrupt checkpoint never partially overwrites a model; only an
//!   architecture mismatch (different name/shape in visit order) can error
//!   out mid-load.
//!
//! The v1 magic (`RBFNCKP1`, no CRCs) is explicitly rejected.

use crate::param::Param;
use std::fs;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"RBFNCKP2";
const VERSION: u32 = 2;
const MAX_NAME_LEN: usize = 4096;

/// One-shot CRC32 of `data` (the artifact container shares the checkpoint
/// polynomial so there is exactly one CRC implementation in the tree).
pub(crate) fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xffff_ffff, data)
}

/// Slice-by-8 CRC32 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight bytes fold in one step. Built at compile time.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ if crc & 1 != 0 { 0xedb8_8320 } else { 0 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`, seeded by
/// `seed` so multi-slice digests can be chained. Slice-by-8: artifact opens
/// CRC the whole structure stream on the serving cold path, so this runs at
/// memory speed rather than byte-at-a-time.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes(c[..4].try_into().unwrap());
        let hi = u32::from_le_bytes(c[4..].try_into().unwrap());
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

fn blob_crc(name: &str, data: &[f32]) -> u32 {
    let mut crc = crc32_update(0xffff_ffff, name.as_bytes());
    crc = crc32_update(crc, &(data.len() as u64).to_le_bytes());
    for v in data {
        crc = crc32_update(crc, &v.to_le_bytes());
    }
    !crc
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Saves named f32 blobs to `path` atomically (tmp + fsync + rename).
///
/// Any stale `<path>.tmp` left by an earlier crash is overwritten.
///
/// The write goes through [`crate::artifact::write_atomic`]: tmp + fsync of
/// both the file and its parent directory + rename, transient errors
/// retried under the bounded `io.retries` budget. A directory-fsync
/// failure is propagated — the rename may not survive power loss, so the
/// caller must not record the step as checkpointed.
///
/// # Errors
///
/// Propagates I/O errors; unless the failure happened after the rename,
/// the destination `path` is left untouched.
pub fn save_blobs<P: AsRef<Path>>(path: P, blobs: &[(String, Vec<f32>)]) -> io::Result<()> {
    let path = path.as_ref();
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(blobs.len() as u64).to_le_bytes());
    for (name, data) in blobs {
        buf.extend_from_slice(&(name.len() as u64).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
        for v in data {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&blob_crc(name, data).to_le_bytes());
    }
    crate::artifact::write_atomic(path, &buf)
}

/// The temporary sibling used by [`save_blobs`] for atomic writes.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// Loads all named f32 blobs from `path`, verifying structure and per-blob
/// CRCs before returning anything.
///
/// # Errors
///
/// Fails with `InvalidData` on a bad magic/version, any out-of-bounds length
/// field, CRC mismatch, non-UTF-8 name, or trailing bytes after the last
/// blob; propagates underlying I/O errors.
pub fn load_blobs<P: AsRef<Path>>(path: P) -> io::Result<Vec<(String, Vec<f32>)>> {
    let buf = fs::read(path)?;
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> io::Result<&[u8]> {
        let end = pos.checked_add(n).filter(|&e| e <= buf.len()).ok_or_else(|| {
            bad(format!("checkpoint truncated: need {} bytes at offset {}", n, *pos))
        })?;
        let s = &buf[*pos..end];
        *pos = end;
        Ok(s)
    };
    if take(&mut pos, 8)? != MAGIC {
        return Err(bad("not a RevBiFPN v2 checkpoint"));
    }
    let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    if version != VERSION {
        return Err(bad(format!("unsupported checkpoint version {version}")));
    }
    let count = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
    let mut blobs: Vec<(String, Vec<f32>)> = Vec::new();
    for i in 0..count {
        let name_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        if name_len > MAX_NAME_LEN {
            return Err(bad(format!("blob {i}: name length {name_len} too long")));
        }
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| bad(format!("blob {i}: non-utf8 name")))?;
        let numel = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        // Bounds-check before allocating: a corrupt numel must not drive a
        // huge allocation.
        let payload_bytes =
            numel.checked_mul(4).filter(|&b| pos + b <= buf.len()).ok_or_else(|| {
                bad(format!("blob {i} ('{name}'): payload of {numel} elements exceeds file size"))
            })?;
        let payload = take(&mut pos, payload_bytes)?;
        let data: Vec<f32> =
            payload.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        let crc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        if crc != blob_crc(&name, &data) {
            return Err(bad(format!("blob {i} ('{name}'): CRC mismatch, checkpoint corrupt")));
        }
        blobs.push((name, data));
    }
    if pos != buf.len() {
        return Err(bad(format!("{} trailing bytes after last blob", buf.len() - pos)));
    }
    Ok(blobs)
}

/// Saves all visited parameters to `path` (atomically, format v2).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_params<P: AsRef<Path>>(
    path: P,
    visit: impl FnOnce(&mut dyn FnMut(&mut Param)),
) -> io::Result<()> {
    // First pass into memory: visitors are FnOnce, so collect everything.
    let mut blobs: Vec<(String, Vec<f32>)> = Vec::new();
    visit(&mut |p: &mut Param| {
        blobs.push((p.name.to_string(), p.value.data().to_vec()));
    });
    save_blobs(path, &blobs)
}

/// Loads parameters from `path` into the visited parameters, in order.
///
/// The whole file is parsed and CRC-verified before any parameter is
/// touched, so a *corrupt* checkpoint never mutates the model. A checkpoint
/// from a different architecture (name/shape mismatch) errors out mid-visit
/// and may leave earlier parameters already loaded; treat the model as
/// undefined after such an error.
///
/// # Errors
///
/// Fails with `InvalidData` on magic/CRC/count/name/shape mismatches, so a
/// corrupt checkpoint or one from a different architecture can never load.
pub fn load_params<P: AsRef<Path>>(
    path: P,
    visit: impl FnOnce(&mut dyn FnMut(&mut Param)),
) -> io::Result<()> {
    let blobs = load_blobs(path)?;
    let count = blobs.len();
    let mut idx = 0usize;
    let mut error: Option<String> = None;
    visit(&mut |p: &mut Param| {
        if error.is_some() {
            return;
        }
        match blobs.get(idx) {
            None => error = Some(format!("checkpoint has {count} parameters, model has more")),
            Some((name, data)) => {
                if name != p.name {
                    error =
                        Some(format!("parameter {idx}: checkpoint '{name}' vs model '{}'", p.name));
                } else if data.len() != p.numel() {
                    error = Some(format!(
                        "parameter {idx} ('{name}'): checkpoint {} elements vs model {}",
                        data.len(),
                        p.numel()
                    ));
                } else {
                    p.value.data_mut().copy_from_slice(data);
                }
            }
        }
        idx += 1;
    });
    if let Some(e) = error {
        return Err(bad(e));
    }
    if idx != count {
        return Err(bad(format!("checkpoint has {count} parameters, model visited {idx}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use revbifpn_tensor::{Shape, Tensor};

    fn params() -> Vec<Param> {
        vec![
            Param::new(Tensor::full(Shape::vector(4), 1.5), true, "conv.weight"),
            Param::new(Tensor::full(Shape::vector(2), -0.5), false, "bn.gamma"),
        ]
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // CRC32("123456789") = 0xCBF43926 (IEEE check value).
        assert_eq!(!crc32_update(0xffff_ffff, b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn roundtrip_restores_values() {
        let dir = std::env::temp_dir().join("revbifpn_ckpt_test_rt");
        let mut ps = params();
        save_params(&dir, |f| ps.iter_mut().for_each(f)).unwrap();
        let mut qs = params();
        qs[0].value.fill_zero();
        qs[1].value.fill_zero();
        load_params(&dir, |f| qs.iter_mut().for_each(f)).unwrap();
        assert_eq!(qs[0].value.data(), ps[0].value.data());
        assert_eq!(qs[1].value.data(), ps[1].value.data());
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn blob_roundtrip_preserves_everything() {
        let path = std::env::temp_dir().join("revbifpn_ckpt_test_blobs");
        let blobs = vec![
            ("meta".to_string(), vec![2.0, 17.0]),
            ("empty".to_string(), vec![]),
            ("w".to_string(), vec![-0.25; 9]),
        ];
        save_blobs(&path, &blobs).unwrap();
        assert!(!tmp_path(&path).exists(), "tmp file must not survive a successful save");
        assert_eq!(load_blobs(&path).unwrap(), blobs);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn name_mismatch_is_rejected() {
        let path = std::env::temp_dir().join("revbifpn_ckpt_test_name");
        let mut ps = params();
        save_params(&path, |f| ps.iter_mut().for_each(f)).unwrap();
        let mut other = [Param::new(Tensor::zeros(Shape::vector(4)), true, "linear.weight")];
        let err = load_params(&path, |f| other.iter_mut().for_each(f)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let path = std::env::temp_dir().join("revbifpn_ckpt_test_shape");
        let mut ps = params();
        save_params(&path, |f| ps.iter_mut().for_each(f)).unwrap();
        let mut other = [
            Param::new(Tensor::zeros(Shape::vector(3)), true, "conv.weight"),
            Param::new(Tensor::zeros(Shape::vector(2)), false, "bn.gamma"),
        ];
        assert!(load_params(&path, |f| other.iter_mut().for_each(f)).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupt_load_leaves_model_untouched() {
        let path = std::env::temp_dir().join("revbifpn_ckpt_test_atomic_load");
        let mut ps = params();
        save_params(&path, |f| ps.iter_mut().for_each(f)).unwrap();
        // Corrupt a payload byte: CRC validation happens before any model
        // mutation, so the target params must stay exactly as they were.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[50] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut other = params();
        other[0].value.fill_zero();
        assert!(load_params(&path, |f| other.iter_mut().for_each(f)).is_err());
        assert_eq!(other[0].value.data(), &[0.0; 4]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncated_model_is_rejected() {
        let path = std::env::temp_dir().join("revbifpn_ckpt_test_trunc");
        let mut ps = params();
        save_params(&path, |f| ps.iter_mut().for_each(f)).unwrap();
        let mut fewer = [Param::new(Tensor::zeros(Shape::vector(4)), true, "conv.weight")];
        assert!(load_params(&path, |f| fewer.iter_mut().for_each(f)).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = std::env::temp_dir().join("revbifpn_ckpt_test_magic");
        std::fs::write(&path, b"NOTACKPT").unwrap();
        let mut ps = params();
        assert!(load_params(&path, |f| ps.iter_mut().for_each(f)).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn v1_magic_is_rejected() {
        let path = std::env::temp_dir().join("revbifpn_ckpt_test_v1");
        // A minimal v1 file: old magic + zero params.
        let mut v1 = b"RBFNCKP1".to_vec();
        v1.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, v1).unwrap();
        assert!(load_blobs(&path).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn single_byte_corruption_is_rejected() {
        let path = std::env::temp_dir().join("revbifpn_ckpt_test_flip");
        let mut ps = params();
        save_params(&path, |f| ps.iter_mut().for_each(f)).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one byte inside the first payload (after magic+version+count+
        // name_len+name("conv.weight")+numel = 8+4+8+8+11+8 = 47).
        let mut dirty = clean.clone();
        dirty[48] ^= 0x10;
        std::fs::write(&path, &dirty).unwrap();
        assert!(load_blobs(&path).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupt_numel_does_not_allocate() {
        let path = std::env::temp_dir().join("revbifpn_ckpt_test_numel");
        let mut ps = params();
        save_params(&path, |f| ps.iter_mut().for_each(f)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Overwrite the first blob's numel (offset 39) with u64::MAX: the
        // loader must reject it via bounds checking, not try to allocate.
        bytes[39..47].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_blobs(&path).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stale_tmp_is_replaced_by_next_save() {
        let path = std::env::temp_dir().join("revbifpn_ckpt_test_stale_tmp");
        std::fs::write(tmp_path(&path), b"garbage from a crashed writer").unwrap();
        let blobs = vec![("x".to_string(), vec![1.0, 2.0])];
        save_blobs(&path, &blobs).unwrap();
        assert!(!tmp_path(&path).exists());
        assert_eq!(load_blobs(&path).unwrap(), blobs);
        let _ = std::fs::remove_file(path);
    }
}
