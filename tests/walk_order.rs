//! Pins the one walk order of every model tree.
//!
//! Checkpoints (`param/{i:05}`, `buf/{j:05}`), the sharded engine's
//! broadcast / gradient merge / BN pairing, the pipeline's parameter sync,
//! the trainer's snapshot, SGD momentum, EMA and the grad-norm sum all pair
//! tensors by their position in the walk. The digests below were recorded
//! from the walks as they stood before the traversals were derived from one
//! child list per module; a change to any of them is a format break.
//!
//! The second half pins the cache contract: after a conventional (`Full`)
//! or reversible (`Stats`) training forward, `clear_cache` leaves nothing
//! registered with the activation meter.

use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_baselines::{HrNet, HrNetConfig, ResNetFpn, ResNetFpnConfig};
use revbifpn_detect::{DetHeadConfig, Detector, HrBackbone, RevBackbone};
use revbifpn_nn::{meter, CacheMode, Module, Param};
use revbifpn_tensor::{Shape, Tensor};

/// FNV-1a over a sequence, with the item count alongside.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    count: usize,
    hash: u64,
}

impl Digest {
    fn new() -> Self {
        Self { count: 0, hash: 0xcbf2_9ce4_8422_2325 }
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.hash ^= x as u64;
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn shape(&mut self, s: Shape) {
        for d in [s.n, s.c, s.h, s.w] {
            self.bytes(&(d as u64).to_le_bytes());
        }
    }

    fn param(&mut self, p: &Param) {
        self.count += 1;
        self.bytes(p.name.as_bytes());
        self.bytes(&[0]);
        self.shape(p.value.shape());
    }

    fn buffer(&mut self, t: &Tensor) {
        self.count += 1;
        self.shape(t.shape());
    }

    fn channels(&mut self, c: usize) {
        self.count += 1;
        self.bytes(&(c as u64).to_le_bytes());
    }
}

fn d(count: usize, hash: u64) -> Digest {
    Digest { count, hash }
}

fn param_digest(visit: impl FnOnce(&mut dyn FnMut(&mut Param))) -> Digest {
    let mut dg = Digest::new();
    visit(&mut |p| dg.param(p));
    dg
}

fn rev_detector(reversible: bool) -> Detector {
    let net = revbifpn::RevBiFPN::new(RevBiFPNConfig::tiny(4));
    Detector::new(Box::new(RevBackbone::new(net, reversible)), DetHeadConfig::new(3), 0)
}

fn hr_detector() -> Detector {
    Detector::new(Box::new(HrBackbone::new(HrNet::new(HrNetConfig::micro()))), DetHeadConfig::new(3), 0)
}

#[test]
fn classifier_walk_orders_are_pinned() {
    let cases = [
        (
            "tiny",
            RevBiFPNConfig::tiny(10),
            [d(341, 0xabea_bd67_e16b_9dd5), d(162, 0xb0e0_5f5c_d629_77a5), d(81, 0xb010_feab_a10a_7735)],
        ),
        (
            "s0",
            RevBiFPNConfig::s0(10),
            [d(801, 0x9b99_51ca_24ff_0da4), d(410, 0x5384_bcf5_f057_c819), d(205, 0x1e03_9d79_5c7f_d6be)],
        ),
    ];
    let mut failed = Vec::new();
    for (name, cfg, want) in cases {
        let mut m = RevBiFPNClassifier::new(cfg);
        let params = param_digest(|f| m.visit_params(f));
        let mut buffers = Digest::new();
        m.visit_buffers(&mut |t| buffers.buffer(t));
        let mut bns = Digest::new();
        m.visit_bn(&mut |bn| bns.channels(bn.channels()));
        let got = [params, buffers, bns];
        if got != want {
            failed.push(format!("{name}: {got:?}"));
        }
    }
    assert!(failed.is_empty(), "walk order changed:\n{}", failed.join("\n"));
}

#[test]
fn detector_and_baseline_walk_orders_are_pinned() {
    let got = [
        ("rev detector", param_digest(|f| rev_detector(true).visit_params(f)), d(322, 0x2afc_b2f9_904a_e24b)),
        ("hrnet detector", param_digest(|f| hr_detector().visit_params(f)), d(102, 0xdd1d_5620_0bdb_f2c0)),
        ("hrnet", param_digest(|f| HrNet::new(HrNetConfig::micro()).visit_params(f)), d(78, 0x7277_b858_aecb_7b34)),
        (
            "resnet-fpn",
            param_digest(|f| ResNetFpn::new(ResNetFpnConfig::micro()).visit_params(f)),
            d(67, 0xd47f_7d31_6c07_089a),
        ),
    ];
    let failed: Vec<String> =
        got.iter().filter(|(_, p, want)| p != want).map(|(name, p, _)| format!("{name}: {p:?}")).collect();
    assert!(failed.is_empty(), "walk order changed:\n{}", failed.join("\n"));
}

fn image(n: usize, res: usize) -> Tensor {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    Tensor::randn(Shape::new(n, 3, res, res), 1.0, &mut rng)
}

#[test]
fn clear_cache_leaves_the_meter_empty() {
    meter::reset();
    for (name, cfg) in [("tiny", RevBiFPNConfig::tiny(10)), ("s0", RevBiFPNConfig::s0(10))] {
        let mut m = RevBiFPNClassifier::new(cfg);
        for mode in [RunMode::TrainConventional, RunMode::TrainReversible] {
            let _ = m.forward(&image(2, 32), mode);
            assert!(meter::current() > 0, "{name} {mode:?}: the forward cached nothing");
            m.clear_cache();
            assert_eq!(meter::current(), 0, "{name} {mode:?}: clear_cache left bytes behind");
        }
    }
    for mode in [CacheMode::Full, CacheMode::Stats] {
        let mut hr = HrNet::new(HrNetConfig::micro());
        let _ = hr.forward(&image(1, 32), mode);
        assert!(meter::current() > 0, "hrnet {mode:?}: the forward cached nothing");
        hr.clear_cache();
        assert_eq!(meter::current(), 0, "hrnet {mode:?}: clear_cache left bytes behind");

        let mut fpn = ResNetFpn::new(ResNetFpnConfig::micro());
        let _ = fpn.forward(&image(1, 32), mode);
        assert!(meter::current() > 0, "resnet-fpn {mode:?}: the forward cached nothing");
        fpn.clear_cache();
        assert_eq!(meter::current(), 0, "resnet-fpn {mode:?}: clear_cache left bytes behind");
    }
    // A detector trains its backbone in the backbone's own regime: Stats
    // for a reversible RevBiFPN, Full for a conventional one and for HRNet.
    for (name, mut det) in
        [("rev detector", rev_detector(true)), ("conv detector", rev_detector(false)), ("hrnet detector", hr_detector())]
    {
        let _ = det.forward_train(&image(1, 32));
        assert!(meter::current() > 0, "{name}: the forward cached nothing");
        det.clear_cache();
        assert_eq!(meter::current(), 0, "{name}: clear_cache left bytes behind");
    }
}
