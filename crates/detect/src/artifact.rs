//! `RBFNFRZ1` serialization for frozen detectors.
//!
//! Mirrors `revbifpn::artifact` for the detection stack: the shared
//! backbone codec comes from the core crate, and this module adds the
//! [`DetHeadConfig`] + per-level head layer codec plus whole-file
//! [`save_detector_artifact`] / [`load_detector_artifact`] entry points.
//! Detector artifacts carry [`FLAG_DETECTOR`] instead of the classifier
//! flag, so the two model kinds can never be confused at load time.

use crate::freeze::{FrozenDetHead, FrozenDetector};
use crate::head::DetHeadConfig;
use revbifpn::artifact::{decode_backbone, encode_backbone, FLAG_INT8};
use revbifpn_nn::artifact::{
    decode_layer, encode_layer, ArtifactReader, ArtifactWriter, TreeReader,
};
use revbifpn_nn::freeze::{FrozenLayer, FrozenTree};
use std::io;
use std::path::Path;

/// Artifact flag bit: the payload is a detector (backbone + FCOS-style head).
pub const FLAG_DETECTOR: u32 = 4;

fn inv(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn put_layers(w: &mut ArtifactWriter, layers: &[FrozenLayer]) -> io::Result<()> {
    w.put_u32(layers.len() as u32);
    for l in layers {
        encode_layer(w, l)?;
    }
    Ok(())
}

fn get_layers(r: &mut TreeReader<'_>) -> io::Result<Vec<FrozenLayer>> {
    let n = r.get_u32()? as usize;
    if n > 1 << 16 {
        return Err(inv("unreasonable layer count"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_layer(r)?);
    }
    Ok(out)
}

fn encode_head_config(w: &mut ArtifactWriter, cfg: &DetHeadConfig) {
    w.put_u64(cfg.num_classes as u64);
    w.put_u64(cfg.head_channels as u64);
    w.put_u64(cfg.tower_depth as u64);
    w.put_f32(cfg.score_thresh);
    w.put_f32(cfg.nms_iou);
    w.put_u64(cfg.max_dets as u64);
}

fn decode_head_config(r: &mut TreeReader<'_>) -> io::Result<DetHeadConfig> {
    let get_usize = |r: &mut TreeReader<'_>| -> io::Result<usize> {
        usize::try_from(r.get_u64()?).map_err(|_| inv("usize overflow in head config"))
    };
    let num_classes = get_usize(r)?;
    let head_channels = get_usize(r)?;
    let tower_depth = get_usize(r)?;
    let score_thresh = r.get_f32()?;
    let nms_iou = r.get_f32()?;
    let max_dets = get_usize(r)?;
    if num_classes == 0 || head_channels == 0 {
        return Err(inv("degenerate detection head config"));
    }
    Ok(DetHeadConfig { num_classes, head_channels, tower_depth, score_thresh, nms_iou, max_dets })
}

/// Serializes a compiled [`FrozenDetector`] into `w`.
///
/// # Errors
///
/// Fails on a model containing an uncompiled conv.
pub fn encode_detector(w: &mut ArtifactWriter, model: &FrozenDetector) -> io::Result<()> {
    encode_backbone(w, &model.backbone)?;
    encode_head_config(w, &model.head.cfg);
    w.put_u32(model.head.strides.len() as u32);
    for &s in &model.head.strides {
        w.put_u64(s as u64);
    }
    put_layers(w, &model.head.laterals)?;
    put_layers(w, &model.head.towers)?;
    put_layers(w, &model.head.cls)?;
    put_layers(w, &model.head.reg)
}

/// Deserializes a [`FrozenDetector`] written by [`encode_detector`].
pub fn decode_detector(r: &mut TreeReader<'_>) -> io::Result<FrozenDetector> {
    let backbone = decode_backbone(r)?;
    let cfg = decode_head_config(r)?;
    let n_levels = r.get_u32()? as usize;
    if n_levels > 1 << 8 {
        return Err(inv("unreasonable pyramid level count"));
    }
    let mut strides = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        strides
            .push(usize::try_from(r.get_u64()?).map_err(|_| inv("stride overflow"))?);
    }
    let laterals = get_layers(r)?;
    let towers = get_layers(r)?;
    let cls = get_layers(r)?;
    let reg = get_layers(r)?;
    for (name, v) in
        [("laterals", &laterals), ("towers", &towers), ("cls", &cls), ("reg", &reg)]
    {
        if v.len() != n_levels {
            return Err(inv(match name {
                "laterals" => "lateral count disagrees with pyramid levels",
                "towers" => "tower count disagrees with pyramid levels",
                "cls" => "cls-branch count disagrees with pyramid levels",
                _ => "reg-branch count disagrees with pyramid levels",
            }));
        }
    }
    Ok(FrozenDetector {
        backbone,
        head: FrozenDetHead { cfg, strides, laterals, towers, cls, reg },
    })
}

/// Computes the artifact flags for `model` (precision tier + kind).
pub fn detector_flags(model: &FrozenDetector) -> u32 {
    FLAG_DETECTOR | if model.is_quantized() { FLAG_INT8 } else { 0 }
}

/// Serializes `model` and writes it to `path` atomically and durably.
///
/// # Errors
///
/// Propagates serialization and I/O errors; unless the failure happened
/// after the rename, an existing artifact at `path` is left untouched.
pub fn save_detector_artifact(path: &Path, model: &FrozenDetector) -> io::Result<()> {
    let mut w = ArtifactWriter::new(detector_flags(model));
    encode_detector(&mut w, model)?;
    w.save(path)
}

/// Opens, validates, and decodes a detector artifact (mmap-preferring with
/// copy fallback, like `revbifpn::artifact::load_classifier_artifact`).
/// Section payload CRCs are *not* verified here — run
/// [`ArtifactReader::verify_sections`] before trusting unknown provenance.
///
/// # Errors
///
/// `InvalidData` for structural, CRC, layout, or model-kind mismatches;
/// I/O errors from the filesystem.
pub fn load_detector_artifact(
    path: &Path,
    prefer_map: bool,
) -> io::Result<(FrozenDetector, ArtifactReader)> {
    let reader = ArtifactReader::open(path, prefer_map)?;
    if reader.flags() & FLAG_DETECTOR == 0 {
        return Err(inv("artifact does not contain a detector"));
    }
    let mut cur = reader.cursor();
    let model = decode_detector(&mut cur)?;
    if cur.remaining() != 0 {
        return Err(inv("trailing bytes after detector payload"));
    }
    Ok((model, reader))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, RevBackbone};
    use revbifpn_data::BoxAnnotation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn::{RevBiFPN, RevBiFPNConfig};
    use revbifpn_nn::Module;
    use revbifpn_tensor::{Shape, Tensor};
    use std::fs;

    #[test]
    fn detector_roundtrips_bitwise() {
        let dir =
            std::env::temp_dir().join(format!("revbifpn_det_art_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let backbone = RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(4)), true);
        let mut det = Detector::new(Box::new(backbone), DetHeadConfig::new(3), 7);
        let mut rng = StdRng::seed_from_u64(9);
        // Move BN running stats off their init so the frozen form is
        // non-trivial, then clear training caches.
        let objs = vec![vec![BoxAnnotation { bbox: [4.0, 4.0, 20.0, 20.0], class: 0 }]];
        let images = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let _ = det.train_step(&images, &objs);
        det.clear_cache();

        let detector = det.freeze().unwrap();
        let want = detector.forward_raw(&images);

        let path = dir.join("det.frz");
        save_detector_artifact(&path, &detector).unwrap();
        let (loaded, reader) = load_detector_artifact(&path, true).unwrap();
        reader.verify_sections().unwrap();
        assert_eq!(reader.flags() & FLAG_DETECTOR, FLAG_DETECTOR);
        let got = loaded.forward_raw(&images);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.cls, w.cls, "cls logits must be bitwise equal");
            assert_eq!(g.reg, w.reg, "reg outputs must be bitwise equal");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
