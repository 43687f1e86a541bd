//! Pins the one walk order of every model tree.
//!
//! Checkpoints (`param/{i:05}`, `buf/{j:05}`), the sharded engine's
//! broadcast / gradient merge / BN pairing, the pipeline's parameter sync,
//! the trainer's snapshot, SGD momentum, EMA and the grad-norm sum all pair
//! tensors by their position in the walk. The digests below were recorded
//! from the walks as they stood before the traversals were derived from one
//! child list per module; a change to any of them is a format break.
//!
//! The second part pins the cache contract: after a conventional (`Full`)
//! or reversible (`Stats`) training forward, `clear_cache` leaves nothing
//! registered with the activation meter.
//!
//! The third pins the analytic model — shapes, MACs, cache bytes, the
//! reversible transient, checkpointing and activation bytes — in both
//! accountings, and checks that the shape walk lists the same layers as the
//! state walk. The per-op autograd digests were recorded before those
//! numbers were derived from the shape walk, and before any layer stored
//! less than per-op autograd would; the layout digests were recorded when a
//! `Full` MBConv began to keep only its input, its BatchNorms' inputs and
//! the SE gate.

use revbifpn::{
    ClsHead, DownsampleMode, Neck, RevBiFPNClassifier, RevBiFPNConfig, RunMode, StemKind, UpsampleMode,
};
use revbifpn_baselines::{
    EfficientNet, EfficientNetConfig, HrNet, HrNetConfig, ResNetFpn, ResNetFpnConfig, RevShNet, RevShNetConfig,
};
use revbifpn_detect::{Backbone, DetHead, DetHeadConfig, Detector, HrBackbone, RevBackbone};
use revbifpn_nn::{meter, Accounting, CacheMode, Layer, Module, Param, ShapeWalk};
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

    fn num(&mut self, v: u64) {
        self.count += 1;
        self.bytes(&v.to_le_bytes());
    }

    fn shapes(&mut self, ss: &[Shape]) {
        self.count += 1;
        for &s in ss {
            self.shape(s);
        }
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

const MODES: [CacheMode; 3] = [CacheMode::None, CacheMode::Stats, CacheMode::Full];

/// The `tiny` classifier in its three stem / sampling variants and S0–S3,
/// each at two resolutions.
fn analytic_configs() -> Vec<(String, RevBiFPNConfig)> {
    let mut cases = Vec::new();
    for res in [32, 64] {
        let tiny = RevBiFPNConfig::tiny(10).with_resolution(res);
        let conv_stem = RevBiFPNConfig { stem: StemKind::Convolutional, ..tiny.clone() };
        let chained = RevBiFPNConfig {
            down_mode: DownsampleMode::Chained,
            up_mode: UpsampleMode::NearestPointwise,
            ..tiny.clone()
        };
        cases.push((format!("tiny@{res}"), tiny));
        cases.push((format!("tiny-conv-stem@{res}"), conv_stem));
        cases.push((format!("tiny-chained@{res}"), chained));
    }
    for s in 0..=3 {
        let cfg = RevBiFPNConfig::scaled(s, 1000);
        cases.push((format!("S{s}@{}", cfg.resolution), cfg.clone()));
        cases.push((format!("S{s}@128"), cfg.with_resolution(128)));
    }
    cases
}

/// Every analytic number of a classifier at batch 1 and 4, the cache bytes
/// under `acct`: whole model, backbone, stem, body, neck, head and each body
/// stage.
fn classifier_numbers(cfg: &RevBiFPNConfig, acct: Accounting) -> Digest {
    let mut dg = Digest::new();
    let m = RevBiFPNClassifier::new(cfg.clone());
    let (neck, head) = (Neck::from_config(cfg), ClsHead::from_config(cfg));
    let (b, body) = (m.backbone(), m.backbone().body());
    for n in [1, 4] {
        let img = Shape::new(n, 3, cfg.resolution, cfg.resolution);
        let s0 = [b.stem().out_shape(img)];
        let pyr = b.pyramid_shapes(n);
        let necked = neck.out_shapes(&pyr);
        for shapes in [&s0[..], &pyr, &body.out_shapes(&s0), &necked] {
            dg.shapes(shapes);
        }
        for v in [m.macs(n), b.macs(n), b.stem().macs(img), body.macs(&s0), neck.macs(&pyr), head.macs(&necked)] {
            dg.num(v);
        }
        for mode in MODES {
            for v in [
                b.cache_bytes(n, mode, acct),
                body.cache_bytes(&s0, mode, acct),
                neck.cache_bytes(&pyr, mode, acct),
                head.cache_bytes(&necked, mode, acct),
            ] {
                dg.num(v);
            }
        }
        dg.num(b.peak_transient_bytes(n, acct));
        dg.num(body.transient_bytes(&s0, acct));
        for seg in 1..=3 {
            dg.num(body.checkpoint_bytes(&s0, seg, acct));
        }
        for parts in 1..=3 {
            for bound in body.partition_by_macs(&s0, parts) {
                dg.num(bound as u64);
            }
        }
        for mode in [RunMode::TrainReversible, RunMode::TrainConventional] {
            dg.num(m.activation_bytes(n, mode, acct));
        }
        let mut cur = s0.to_vec();
        for s in body.stages() {
            dg.num(s.macs(&cur));
            for mode in MODES {
                dg.num(s.cache_bytes(&cur, mode, acct));
            }
            dg.num(s.transient_bytes(&cur, acct));
            cur = s.out_shapes(&cur);
            dg.shapes(&cur);
        }
    }
    dg
}

/// The bytes ResNet-FPN's three top-down `Upsample`s cache in `Full` mode
/// (one `Shape` each), which its analytic activation bytes omitted before
/// they were derived from the shape walk.
const FPN_UPS_BYTES: u64 = 3 * std::mem::size_of::<Shape>() as u64;

/// Every pinned analytic number under `acct`, one digest per classifier
/// configuration and per baseline group, by name.
fn analytic_digests(acct: Accounting) -> Vec<(String, Digest)> {
    let mut out: Vec<(String, Digest)> =
        analytic_configs().iter().map(|(name, cfg)| (name.clone(), classifier_numbers(cfg, acct))).collect();

    let mut got: [Digest; 6] = std::array::from_fn(|_| Digest::new());
    let hr = HrNet::new(HrNetConfig::micro());
    let fpn = ResNetFpn::new(ResNetFpnConfig::micro());
    let sh = RevShNet::new(RevShNetConfig::micro());
    for res in [32, 64] {
        let eff = EfficientNet::new(EfficientNetConfig::micro(10).with_resolution(res));
        for n in [1, 4] {
            for v in [eff.macs(n), eff.activation_bytes(n, acct), eff.activation_bytes_at(n, res, acct)] {
                got[0].num(v);
            }
            for v in [hr.macs_at(n, res), hr.activation_bytes_at(n, res)] {
                got[1].num(v);
            }
            got[2].num(fpn.macs_at(n, res));
            got[3].num(fpn.activation_bytes_at(n, res) - FPN_UPS_BYTES);
            for v in [sh.macs_at(n, res), sh.activation_bytes_rev(n, res, acct), sh.activation_bytes_conv(n, res, acct)] {
                got[4].num(v);
            }
        }
    }
    let det = rev_detector(true);
    let net = revbifpn::RevBiFPN::new(RevBiFPNConfig::tiny(4));
    for n in [1, 4] {
        got[5].num(det.head().macs(&net.pyramid_shapes(n)));
    }
    let names = [
        "efficientnet",
        "hrnet",
        "resnet-fpn macs",
        "resnet-fpn activation bytes without the ups",
        "revshnet",
        "detection head macs",
    ];
    out.extend(names.into_iter().map(String::from).zip(got));
    out
}

/// Checks [`analytic_digests`] under `acct` against `want`, in order.
fn check_analytic<'a>(acct: Accounting, want: impl IntoIterator<Item = &'a (&'a str, Digest)>) {
    let got = analytic_digests(acct);
    let want: Vec<_> = want.into_iter().collect();
    assert_eq!(got.len(), want.len());
    let mut failed = Vec::new();
    for ((name, got), (want_name, want)) in got.iter().zip(want) {
        assert_eq!(name, want_name);
        if got != want {
            failed.push(format!("{name}: {got:?}"));
        }
    }
    assert!(failed.is_empty(), "{acct:?}: analytic numbers changed:\n{}", failed.join("\n"));
}

/// The per-op autograd accounting: the paper's magnitudes.
#[test]
fn analytic_model_is_pinned() {
    let want = [
        ("tiny@32", d(148, 0x21a0_451d_9cd7_f9ec)),
        ("tiny-conv-stem@32", d(148, 0x0821_33ce_4cf0_180d)),
        ("tiny-chained@32", d(148, 0xb7af_8a96_9e2d_7e34)),
        ("tiny@64", d(148, 0x067d_1f78_1899_2188)),
        ("tiny-conv-stem@64", d(148, 0x0886_44a3_98f2_5c63)),
        ("tiny-chained@64", d(148, 0x20d3_8752_dabd_dc21)),
        ("S0@224", d(196, 0xdf48_80f4_a2dd_3885)),
        ("S0@128", d(196, 0xdddc_3882_aeb8_0ea5)),
        ("S1@256", d(196, 0xf0ab_e38d_10f1_836e)),
        ("S1@128", d(196, 0x7139_4bbe_795d_0e34)),
        ("S2@256", d(196, 0x808b_4362_bdd8_a4dc)),
        ("S2@128", d(196, 0x03cb_28f6_5e4b_ec06)),
        ("S3@288", d(220, 0x3952_76d7_dc2e_8f92)),
        ("S3@128", d(220, 0xb4f3_922b_e370_a0e8)),
    ];
    let baselines = [
        ("efficientnet", d(12, 0x6e1d_8332_1e79_4458)),
        ("hrnet", d(8, 0x97b2_2f42_402d_9d08)),
        ("resnet-fpn macs", d(4, 0xfeaf_8188_9a48_347d)),
        ("resnet-fpn activation bytes without the ups", d(4, 0x2b17_6d2a_88ab_809f)),
        ("revshnet", d(12, 0x05d7_161f_f1d3_73ab)),
        ("detection head macs", d(2, 0x0d8a_ed06_6f00_c8f5)),
    ];
    check_analytic(Accounting::Autograd, want.iter().chain(&baselines));
}

/// This repo's cache layout, which the meter checks.
#[test]
fn analytic_layout_is_pinned() {
    let want = [
        ("tiny@32", d(148, 0xc864_641c_f6db_d96c)),
        ("tiny-conv-stem@32", d(148, 0x8a14_472f_9acc_e390)),
        ("tiny-chained@32", d(148, 0x76cd_df11_95c5_fc53)),
        ("tiny@64", d(148, 0x5c0b_4147_96fb_48dd)),
        ("tiny-conv-stem@64", d(148, 0xc0e1_cfdd_09b6_87a5)),
        ("tiny-chained@64", d(148, 0x326d_eaea_cb2b_fc53)),
        ("S0@224", d(196, 0xcfcd_3834_f974_e65d)),
        ("S0@128", d(196, 0x0b92_e8d9_d5f6_df59)),
        ("S1@256", d(196, 0xf941_4812_d18b_58a6)),
        ("S1@128", d(196, 0x6e4a_89bb_f748_b86b)),
        ("S2@256", d(196, 0x26da_849b_b6c6_b145)),
        ("S2@128", d(196, 0x4ed9_2ba9_10e3_1f44)),
        ("S3@288", d(220, 0x9c64_f61a_c5a1_8815)),
        ("S3@128", d(220, 0x4823_9571_ba52_76c3)),
    ];
    let baselines = [
        ("efficientnet", d(12, 0xee51_bab6_f3d9_00e8)),
        ("hrnet", d(8, 0x97b2_2f42_402d_9d08)),
        ("resnet-fpn macs", d(4, 0xfeaf_8188_9a48_347d)),
        ("resnet-fpn activation bytes without the ups", d(4, 0x2b17_6d2a_88ab_809f)),
        ("revshnet", d(12, 0x6ec2_8b91_61ea_9134)),
        ("detection head macs", d(2, 0x0d8a_ed06_6f00_c8f5)),
    ];
    check_analytic(Accounting::Layout, want.iter().chain(&baselines));
}

fn addr(l: &dyn Layer) -> *const () {
    l as *const dyn Layer as *const ()
}

/// Asserts that `l`'s shaped visitor lists the same children, by address
/// and in order, as `visit_children`, recursively, each child at the shape
/// the visitor gave it. Returns the number of composite layers checked.
fn check_children(l: &mut dyn Layer, x: Shape) -> usize {
    let mut shaped = Vec::new();
    l.visit_children_at(x, &mut |c, s| shaped.push((addr(c), s)));
    let name = l.name().to_string();
    let mut i = 0;
    let mut checked = usize::from(!shaped.is_empty());
    l.visit_children(&mut |c| {
        assert_eq!(Some(addr(c)), shaped.get(i).map(|&(a, _)| a), "{name}: child {i}");
        checked += check_children(c, shaped[i].1);
        i += 1;
    });
    assert_eq!(i, shaped.len(), "{name}: the shaped visitor lists more children");
    checked
}

/// [`check_children`] for a module: `visit_layers_at` against `visit_layers`,
/// then every listed layer. Returns the number of composites checked.
fn check_module<M: Module + ShapeWalk + ?Sized>(m: &mut M, xs: &[Shape]) -> usize {
    let mut shaped = Vec::new();
    m.visit_layers_at(xs, &mut |l, s| shaped.push((addr(l), s)));
    let mut i = 0;
    let mut checked = 1;
    m.visit_layers(&mut |l| {
        assert_eq!(Some(addr(l)), shaped.get(i).map(|&(a, _)| a), "layer {i}");
        checked += check_children(l, shaped[i].1);
        i += 1;
    });
    assert_eq!(i, shaped.len(), "the shaped walk lists more layers");
    checked
}

#[test]
fn shape_walk_lists_the_walk_order() {
    let mut checked = 0;
    for (_, cfg) in &analytic_configs() {
        let mut m = RevBiFPNClassifier::new(cfg.clone());
        let img = [Shape::new(2, 3, cfg.resolution, cfg.resolution)];
        let pyr = m.backbone().pyramid_shapes(2);
        checked += check_module(&mut m, &img);
        checked += check_module(m.backbone_mut(), &img);
        checked += check_module(m.backbone_mut().stem_mut(), &img);
        checked += check_module(&mut Neck::from_config(cfg), &pyr);
        checked += check_module(&mut ClsHead::from_config(cfg), &Neck::from_config(cfg).out_shapes(&pyr));
        let mut body = m.backbone_mut().take_body();
        let mut cur = m.backbone().stem().out_shapes(&img);
        checked += check_module(&mut body, &cur);
        for mut s in body.into_stages() {
            checked += check_module(s.as_mut(), &cur);
            cur = s.out_shapes(&cur);
        }
    }
    let (img32, img64) = ([Shape::new(2, 3, 32, 32)], [Shape::new(2, 3, 64, 64)]);
    checked += check_module(&mut EfficientNet::new(EfficientNetConfig::micro(10)), &img32);
    checked += check_module(&mut HrNet::new(HrNetConfig::micro()), &img64);
    checked += check_module(&mut ResNetFpn::new(ResNetFpnConfig::micro()), &img64);
    checked += check_module(&mut RevShNet::new(RevShNetConfig::micro()), &img32);
    let backbone = RevBackbone::new(revbifpn::RevBiFPN::new(RevBiFPNConfig::tiny(4)), true);
    let mut head = DetHead::new(DetHeadConfig::new(3), &backbone.channels(), &backbone.strides(), 0);
    checked += check_module(&mut head, &backbone.net().pyramid_shapes(2));
    assert!(checked > 1000, "only {checked} composites checked");
}
