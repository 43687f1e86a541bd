//! Crash-safe training-state checkpointing and auto-resume.
//!
//! A `TrainState` checkpoint captures everything a deterministic run needs
//! to continue bit-exactly: model parameters, persistent buffers (BatchNorm
//! running statistics), SGD momentum, the EMA shadow, and scalar state
//! (completed steps, LR backoff scale, tripwire skip count). RNG state needs
//! no blob: the trainer derives its augmentation stream and the dropout and
//! drop-path mask streams from `(seed, step)` (it reseeds every stochastic
//! layer at the start of a step), so replaying from `step` — into the same
//! model or a freshly built one — reproduces the same draws.
//!
//! Files use the crash-safe v2 container from `revbifpn_nn::checkpoint`
//! (per-blob CRC32, atomic tmp+fsync+rename), named
//! `ckpt_step_{:08}.ckpt` by *completed* steps. [`auto_resume`] scans the
//! directory newest-first, quarantines any file that fails validation by
//! renaming it to `<name>.corrupt` (so it is never scanned again), removes
//! stale `*.tmp` files from interrupted writes, and resumes from the newest
//! checkpoint that loads cleanly.

use crate::ema::Ema;
use crate::sgd::Sgd;
use revbifpn::RevBiFPNClassifier;
use revbifpn_nn::artifact::{prune_quarantine, quarantine_path, rename_with_retries};
use revbifpn_nn::checkpoint::{load_blobs, save_blobs};
use revbifpn_nn::{meter, Module};
use revbifpn_tensor::{Shape, Tensor};
use std::io;
use std::path::{Path, PathBuf};

/// Version tag stored in the `meta` blob.
const STATE_VERSION: f32 = 2.0;

/// Steps are carried in an f32 meta slot; beyond 2^24 an f32 can no longer
/// represent every integer exactly, so saving refuses earlier. Far above any
/// run this workspace performs (the paper's 500-epoch ImageNet recipe is
/// ~3.1e5 steps).
const MAX_EXACT_STEP: usize = 1 << 24;

/// Checkpoint cadence, location, and retention for a training run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointCfg {
    /// Directory the run writes checkpoints into (created on first save).
    pub dir: PathBuf,
    /// Save after every `every_steps` completed steps.
    pub every_steps: usize,
    /// Keep only the newest `keep` checkpoints; older ones are pruned.
    pub keep: usize,
}

impl CheckpointCfg {
    /// A sensible default cadence for the small CPU runs in this workspace.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), every_steps: 8, keep: 3 }
    }
}

/// Scalar training state carried alongside the tensors in a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResumeMeta {
    /// Completed optimizer steps — the next global step index to execute.
    pub step: usize,
    /// Current LR backoff scale from the non-finite tripwires.
    pub lr_scale: f32,
    /// Steps skipped by the tripwires so far.
    pub skips: u64,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Checkpoints `(step, path)` present in `dir`, sorted newest-first.
/// Quarantined (`.corrupt`) and temporary files never match the
/// `ckpt_step_{:08}.ckpt` pattern and are skipped.
fn list_checkpoints(dir: &Path) -> io::Result<Vec<(usize, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("ckpt_step_") else { continue };
        let Some(digits) = stem.strip_suffix(".ckpt") else { continue };
        if let Ok(step) = digits.parse::<usize>() {
            found.push((step, entry.path()));
        }
    }
    found.sort_by_key(|c| std::cmp::Reverse(c.0));
    Ok(found)
}

/// Saves the full training state as `ckpt_step_{:08}.ckpt` in `cfg.dir`
/// (atomically, CRC-protected), then prunes checkpoints beyond `cfg.keep`.
/// Returns the path written.
///
/// # Panics
///
/// Panics if `meta.step >= 2^24` (no longer exactly representable in the
/// f32 meta slot).
pub fn save_train_state(
    cfg: &CheckpointCfg,
    model: &mut RevBiFPNClassifier,
    opt: &Sgd,
    ema: Option<&Ema>,
    meta: ResumeMeta,
) -> io::Result<PathBuf> {
    assert!(meta.step < MAX_EXACT_STEP, "step {} exceeds the exact-f32 range", meta.step);
    std::fs::create_dir_all(&cfg.dir)?;
    let mut blobs: Vec<(String, Vec<f32>)> = vec![(
        "meta".to_string(),
        vec![STATE_VERSION, meta.step as f32, meta.lr_scale, meta.skips as f32],
    )];
    let mut i = 0usize;
    model.visit_params(&mut |p| {
        blobs.push((format!("param/{i:05}/{}", p.name), p.value.data().to_vec()));
        i += 1;
    });
    let mut j = 0usize;
    model.visit_buffers(&mut |t| {
        blobs.push((format!("buf/{j:05}"), t.data().to_vec()));
        j += 1;
    });
    for (k, b) in opt.buffers().iter().enumerate() {
        blobs.push((format!("sgd/{k:05}"), b.data().to_vec()));
    }
    if let Some(e) = ema {
        for (k, s) in e.shadow().iter().enumerate() {
            blobs.push((format!("ema/{k:05}"), s.data().to_vec()));
        }
    }
    let path = cfg.dir.join(format!("ckpt_step_{:08}.ckpt", meta.step));
    save_blobs(&path, &blobs)?;
    for (_, old) in list_checkpoints(&cfg.dir)?.into_iter().skip(cfg.keep.max(1)) {
        std::fs::remove_file(old)?;
    }
    Ok(path)
}

/// Loads a training-state checkpoint into `model`, `opt`, and `ema`,
/// returning the scalar meta.
///
/// The whole file is CRC-validated by the container and then checked
/// against the live model (blob names, counts, and element counts) *before*
/// anything is mutated — a checkpoint that does not match leaves the model
/// and optimizer untouched.
pub fn load_train_state(
    path: &Path,
    model: &mut RevBiFPNClassifier,
    opt: &mut Sgd,
    ema: Option<&mut Ema>,
) -> io::Result<ResumeMeta> {
    let blobs = load_blobs(path)?;
    let (mname, m) = blobs.first().ok_or_else(|| bad("checkpoint has no blobs".into()))?;
    if mname != "meta" || m.len() != 4 {
        return Err(bad(format!("first blob must be meta[4], got {mname:?}[{}]", m.len())));
    }
    if m[0] != STATE_VERSION {
        return Err(bad(format!("state version {} != {STATE_VERSION}", m[0])));
    }
    if m[1] < 0.0 || m[1].fract() != 0.0 || m[1] >= MAX_EXACT_STEP as f32 {
        return Err(bad(format!("meta step {} is not an exact step count", m[1])));
    }
    if !m[2].is_finite() || m[3] < 0.0 || m[3].fract() != 0.0 {
        return Err(bad(format!("meta scalars out of range: lr_scale {} skips {}", m[2], m[3])));
    }
    let meta = ResumeMeta { step: m[1] as usize, lr_scale: m[2], skips: m[3] as u64 };

    // Partition the remaining blobs by section prefix.
    let mut params: Vec<(&str, &Vec<f32>)> = Vec::new();
    let mut bufs: Vec<&Vec<f32>> = Vec::new();
    let mut sgd: Vec<&Vec<f32>> = Vec::new();
    let mut shadow: Vec<&Vec<f32>> = Vec::new();
    for (name, data) in &blobs[1..] {
        if let Some(rest) = name.strip_prefix("param/") {
            params.push((rest, data));
        } else if name.strip_prefix("buf/").is_some() {
            bufs.push(data);
        } else if name.strip_prefix("sgd/").is_some() {
            sgd.push(data);
        } else if name.strip_prefix("ema/").is_some() {
            shadow.push(data);
        } else {
            return Err(bad(format!("unknown blob section {name:?}")));
        }
    }

    // Validate everything against the live model before mutating anything.
    let mut pmeta: Vec<(&'static str, Shape)> = Vec::new();
    model.visit_params(&mut |p| pmeta.push((p.name, p.value.shape())));
    let mut bshapes: Vec<Shape> = Vec::new();
    model.visit_buffers(&mut |t| bshapes.push(t.shape()));
    if params.len() != pmeta.len() {
        return Err(bad(format!("{} param blobs for {} model params", params.len(), pmeta.len())));
    }
    for (idx, ((rest, data), (pname, shape))) in params.iter().zip(&pmeta).enumerate() {
        let expect = format!("{idx:05}/{pname}");
        if *rest != expect {
            return Err(bad(format!("param blob {idx} named {rest:?}, expected {expect:?}")));
        }
        if data.len() != shape.numel() {
            return Err(bad(format!("param {rest:?}: {} elements for shape {shape}", data.len())));
        }
    }
    if bufs.len() != bshapes.len() {
        return Err(bad(format!("{} buffer blobs for {} model buffers", bufs.len(), bshapes.len())));
    }
    for (idx, (data, shape)) in bufs.iter().zip(&bshapes).enumerate() {
        if data.len() != shape.numel() {
            return Err(bad(format!("buffer {idx}: {} elements for shape {shape}", data.len())));
        }
    }
    for (section, tensors) in [("sgd", &sgd), ("ema", &shadow)] {
        if !tensors.is_empty() {
            if tensors.len() != pmeta.len() {
                return Err(bad(format!(
                    "{section}: {} blobs for {} model params",
                    tensors.len(),
                    pmeta.len()
                )));
            }
            for (idx, (data, (pname, shape))) in tensors.iter().zip(&pmeta).enumerate() {
                if data.len() != shape.numel() {
                    return Err(bad(format!(
                        "{section} blob {idx} ({pname}): {} elements for shape {shape}",
                        data.len()
                    )));
                }
            }
        }
    }

    // Apply. Validation passed, so every copy below is shape-exact.
    let mut i = 0usize;
    model.visit_params(&mut |p| {
        p.value.data_mut().copy_from_slice(params[i].1);
        i += 1;
    });
    let mut j = 0usize;
    model.visit_buffers(&mut |t| {
        t.data_mut().copy_from_slice(bufs[j]);
        j += 1;
    });
    let to_tensors = |blobs: &[&Vec<f32>]| -> Vec<Tensor> {
        blobs
            .iter()
            .zip(&pmeta)
            .map(|(d, (_, s))| Tensor::from_vec(*s, (*d).clone()).expect("validated above"))
            .collect()
    };
    opt.set_buffers(to_tensors(&sgd));
    if let Some(e) = ema {
        e.set_shadow(to_tensors(&shadow));
    }
    Ok(meta)
}

/// Scans `cfg.dir` for the newest loadable checkpoint and resumes from it.
///
/// Stale `*.tmp` files (interrupted atomic writes) are deleted. A
/// checkpoint that fails validation — torn write, bit rot, wrong
/// architecture — is quarantined by renaming it to `<name>.corrupt`
/// (transient errors retried, counted under the `train.ckpt_quarantined`
/// meter event, and the quarantined files pruned to the newest `cfg.keep`)
/// and the scan moves on to the next-newest. Returns `Ok(None)` when nothing loadable
/// exists (including when `cfg.dir` does not exist yet).
pub fn auto_resume(
    cfg: &CheckpointCfg,
    model: &mut RevBiFPNClassifier,
    opt: &mut Sgd,
    mut ema: Option<&mut Ema>,
) -> io::Result<Option<ResumeMeta>> {
    if !cfg.dir.is_dir() {
        return Ok(None);
    }
    for entry in std::fs::read_dir(&cfg.dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            std::fs::remove_file(&path)?;
        }
    }
    for (_, path) in list_checkpoints(&cfg.dir)? {
        match load_train_state(&path, model, opt, ema.as_deref_mut()) {
            Ok(meta) => return Ok(Some(meta)),
            Err(_) => {
                rename_with_retries(&path, &quarantine_path(&path))?;
                meter::count("train.ckpt_quarantined");
                prune_quarantine(&cfg.dir, cfg.keep)?;
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::tear_file;
    use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig};

    fn tiny_model() -> RevBiFPNClassifier {
        RevBiFPNClassifier::new(RevBiFPNConfig::tiny(5))
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("revbifpn_resume_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Drives a deterministic fake training step so the optimizer and EMA
    /// hold non-trivial state.
    fn fake_step(model: &mut RevBiFPNClassifier, opt: &mut Sgd, ema: &mut Ema) {
        model.visit_params(&mut |p| {
            let g = p.value.clone();
            p.accumulate(&g);
        });
        opt.step(0.01, |f| model.visit_params(f));
        ema.update(|f| model.visit_params(f));
    }

    #[test]
    fn save_load_roundtrip_restores_everything() {
        let cfg = CheckpointCfg::new(tmp_dir("roundtrip"));
        let mut a = tiny_model();
        let mut opt_a = Sgd::new(0.9, 0.0);
        let mut ema_a = Ema::new(0.5);
        fake_step(&mut a, &mut opt_a, &mut ema_a);
        let meta = ResumeMeta { step: 5, lr_scale: 0.25, skips: 2 };
        let path = save_train_state(&cfg, &mut a, &opt_a, Some(&ema_a), meta).unwrap();
        assert!(path.ends_with("ckpt_step_00000005.ckpt"));

        // A freshly built model differs once perturbed; load must restore it
        // bit-exactly, along with optimizer and EMA state.
        let mut b = tiny_model();
        b.visit_params(&mut |p| p.value.map_inplace(|v| v + 1.0));
        let mut opt_b = Sgd::new(0.9, 0.0);
        let mut ema_b = Ema::new(0.5);
        let got = load_train_state(&path, &mut b, &mut opt_b, Some(&mut ema_b)).unwrap();
        assert_eq!(got, meta);
        let mut vals_a = Vec::new();
        a.visit_params(&mut |p| vals_a.push(p.value.clone()));
        let mut k = 0;
        b.visit_params(&mut |p| {
            assert_eq!(p.value, vals_a[k], "param {k} not restored");
            k += 1;
        });
        assert_eq!(opt_b.buffers(), opt_a.buffers());
        assert_eq!(ema_b.shadow(), ema_a.shadow());
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn mismatched_checkpoint_leaves_model_untouched() {
        let dir = tmp_dir("mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt_step_00000001.ckpt");
        // Valid container, but only a meta blob: no params for the model.
        save_blobs(&path, &[("meta".to_string(), vec![STATE_VERSION, 1.0, 1.0, 0.0])]).unwrap();
        let mut m = tiny_model();
        let mut before = Vec::new();
        m.visit_params(&mut |p| before.push(p.value.clone()));
        let mut opt = Sgd::new(0.9, 0.0);
        assert!(load_train_state(&path, &mut m, &mut opt, None).is_err());
        let mut k = 0;
        m.visit_params(&mut |p| {
            assert_eq!(p.value, before[k]);
            k += 1;
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_resume_quarantines_torn_newest_and_uses_older() {
        let mut cfg = CheckpointCfg::new(tmp_dir("quarantine"));
        cfg.keep = 5;
        let mut m = tiny_model();
        let mut opt = Sgd::new(0.9, 0.0);
        let m4 = ResumeMeta { step: 4, lr_scale: 1.0, skips: 0 };
        save_train_state(&cfg, &mut m, &opt, None, m4).unwrap();
        let newest =
            save_train_state(&cfg, &mut m, &opt, None, ResumeMeta { step: 8, lr_scale: 1.0, skips: 1 })
                .unwrap();
        tear_file(&newest, 64).unwrap();
        // Plus a stale tmp from an interrupted write.
        let stale = cfg.dir.join("ckpt_step_00000012.ckpt.tmp");
        std::fs::write(&stale, b"partial").unwrap();

        let got = auto_resume(&cfg, &mut m, &mut opt, None).unwrap().unwrap();
        assert_eq!(got, m4);
        assert!(!newest.exists(), "torn checkpoint should have been renamed");
        let mut quarantined = newest.into_os_string();
        quarantined.push(".corrupt");
        assert!(PathBuf::from(quarantined).exists());
        assert!(!stale.exists(), "stale tmp should have been removed");
        // A second scan ignores the quarantined file entirely.
        let again = auto_resume(&cfg, &mut m, &mut opt, None).unwrap().unwrap();
        assert_eq!(again, m4);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn auto_resume_keeps_at_most_keep_quarantined_files() {
        // A crash-looping run whose newest checkpoints are all torn must not
        // collect `.corrupt` files without bound.
        let mut cfg = CheckpointCfg::new(tmp_dir("quarantine_bound"));
        cfg.keep = 8;
        let mut m = tiny_model();
        let mut opt = Sgd::new(0.9, 0.0);
        let keep = 2;
        let oldest = ResumeMeta { step: 1, lr_scale: 1.0, skips: 0 };
        save_train_state(&cfg, &mut m, &opt, None, oldest).unwrap();
        for step in 2..=keep + 3 {
            let path = save_train_state(&cfg, &mut m, &opt, None, ResumeMeta { step, ..oldest }).unwrap();
            tear_file(&path, 64).unwrap();
        }
        cfg.keep = keep;
        assert_eq!(auto_resume(&cfg, &mut m, &mut opt, None).unwrap(), Some(oldest));
        let corrupt = std::fs::read_dir(&cfg.dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".corrupt"))
            .count();
        assert!((1..=keep).contains(&corrupt), "{corrupt} quarantined files for keep {keep}");
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn injected_write_faults_fail_the_save_without_breaking_resume() {
        use revbifpn_nn::artifact::{clear_io_faults, inject_io_faults, IoFaults};

        let cfg = CheckpointCfg::new(tmp_dir("write_faults"));
        let mut m = tiny_model();
        let opt = Sgd::new(0.9, 0.0);
        let m2 = ResumeMeta { step: 2, lr_scale: 1.0, skips: 0 };
        save_train_state(&cfg, &mut m, &opt, None, m2).unwrap();

        // Torn write (simulated crash mid-write): the save fails, no rename
        // happened, and resume still lands on the step-2 checkpoint.
        inject_io_faults(IoFaults { torn_write: Some(32), ..IoFaults::default() });
        let torn =
            save_train_state(&cfg, &mut m, &opt, None, ResumeMeta { step: 4, lr_scale: 1.0, skips: 0 });
        clear_io_faults();
        assert!(torn.is_err(), "a torn write must be reported");
        let mut opt2 = Sgd::new(0.9, 0.0);
        let got = auto_resume(&cfg, &mut m, &mut opt2, None).unwrap().unwrap();
        assert_eq!(got, m2, "resume must use the last durable checkpoint");

        // Directory-fsync loss: the rename completed but may not survive
        // power loss, so the save must report failure — the caller cannot
        // record step 6 as checkpointed.
        inject_io_faults(IoFaults { fail_dir_fsync: true, ..IoFaults::default() });
        let unsynced =
            save_train_state(&cfg, &mut m, &opt, None, ResumeMeta { step: 6, lr_scale: 1.0, skips: 0 });
        clear_io_faults();
        assert!(unsynced.is_err(), "a lost directory fsync must be reported");

        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn prune_keeps_only_newest() {
        let mut cfg = CheckpointCfg::new(tmp_dir("prune"));
        cfg.keep = 2;
        let mut m = tiny_model();
        let opt = Sgd::new(0.9, 0.0);
        for step in [2usize, 4, 6] {
            save_train_state(&cfg, &mut m, &opt, None, ResumeMeta {
                step,
                lr_scale: 1.0,
                skips: 0,
            })
            .unwrap();
        }
        let steps: Vec<usize> =
            list_checkpoints(&cfg.dir).unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(steps, vec![6, 4]);
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn empty_dir_resumes_fresh() {
        let cfg = CheckpointCfg::new(tmp_dir("fresh"));
        let mut m = tiny_model();
        let mut opt = Sgd::new(0.9, 0.0);
        assert!(auto_resume(&cfg, &mut m, &mut opt, None).unwrap().is_none());
    }
}
