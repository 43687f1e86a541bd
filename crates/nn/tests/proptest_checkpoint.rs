//! Property-based corruption tests for the crash-safe checkpoint container:
//! arbitrary truncations and byte flips must be *rejected* by the loader —
//! never panic, never yield wrong data — and stray tmp files from
//! interrupted writes must not break subsequent saves.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_nn::checkpoint::{load_blobs, save_blobs, tmp_path};
use std::path::PathBuf;

/// Deterministic random blob set: `n` blobs with varied names and lengths.
fn make_blobs(seed: u64, n: usize) -> Vec<(String, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let len = rng.random::<usize>() % 64;
            let data: Vec<f32> = (0..len).map(|_| rng.random::<f32>() * 20.0 - 10.0).collect();
            (format!("layer{i}/weight{}", rng.random::<u32>() % 100), data)
        })
        .collect()
}

fn scratch(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("revbifpn_proptest_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{seed:x}.ckpt"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Save/load round-trips arbitrary blob sets exactly.
    #[test]
    fn roundtrip_is_exact(seed in any::<u64>(), n in 1usize..6) {
        let blobs = make_blobs(seed, n);
        let path = scratch("roundtrip", seed);
        save_blobs(&path, &blobs).unwrap();
        let loaded = load_blobs(&path).unwrap();
        prop_assert_eq!(loaded, blobs);
        std::fs::remove_file(&path).unwrap();
    }

    /// Any truncation — a torn write — is rejected, never a panic.
    #[test]
    fn any_truncation_is_rejected(seed in any::<u64>(), n in 1usize..5, cut in any::<u64>()) {
        let blobs = make_blobs(seed, n);
        let path = scratch("truncate", seed ^ cut);
        save_blobs(&path, &blobs).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let keep = cut % len; // strictly shorter than the valid file
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(keep).unwrap();
        drop(f);
        prop_assert!(load_blobs(&path).is_err(), "truncation to {} of {} accepted", keep, len);
        std::fs::remove_file(&path).unwrap();
    }

    /// Flipping any single bit anywhere in the file is caught (structure
    /// check or per-blob CRC32), never accepted and never a panic.
    #[test]
    fn any_single_bit_flip_is_rejected(seed in any::<u64>(), pos in any::<u64>(), bit in 0u32..8) {
        let blobs = make_blobs(seed, 3);
        let path = scratch("bitflip", seed ^ pos ^ u64::from(bit));
        save_blobs(&path, &blobs).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(load_blobs(&path).is_err(), "bit flip at byte {} accepted", i);
        std::fs::remove_file(&path).unwrap();
    }

    /// A stray `.tmp` from an interrupted atomic write neither corrupts the
    /// next save nor survives it.
    #[test]
    fn stray_tmp_does_not_break_the_next_save(seed in any::<u64>(), junk in 0usize..200) {
        let blobs = make_blobs(seed, 2);
        let path = scratch("straytmp", seed.wrapping_add(junk as u64));
        let tmp = tmp_path(&path);
        std::fs::write(&tmp, vec![0xABu8; junk]).unwrap();
        save_blobs(&path, &blobs).unwrap();
        prop_assert!(!tmp.exists(), "tmp file left behind after a successful save");
        prop_assert_eq!(load_blobs(&path).unwrap(), blobs);
        std::fs::remove_file(&path).unwrap();
    }
}
