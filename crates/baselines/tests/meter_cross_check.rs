//! Every runnable baseline's analytic activation bytes equal what the
//! activation meter holds after a conventional (`Full`) training forward,
//! byte for byte — the cross-check the RevBiFPN classifier gets in
//! `revbifpn::stats`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_baselines::{
    EfficientNet, EfficientNetConfig, HrNet, HrNetConfig, ResNetFpn, ResNetFpnConfig, RevShNet, RevShNetConfig,
};
use revbifpn_nn::{meter, Accounting, CacheMode, Module};
use revbifpn_tensor::{Shape, Tensor};

/// The bytes `forward` leaves registered with the meter; `clear_cache`
/// releases them again.
fn cached_by<M: Module>(net: &mut M, forward: impl FnOnce(&mut M)) -> u64 {
    meter::reset();
    forward(net);
    let bytes = meter::current() as u64;
    net.clear_cache();
    assert_eq!(meter::current(), 0, "clear_cache left bytes behind");
    bytes
}

#[test]
fn full_forward_caches_exactly_the_analytic_bytes() {
    let res = 32;
    let mut eff = EfficientNet::new(EfficientNetConfig::micro(10));
    let mut hr = HrNet::new(HrNetConfig::micro());
    let mut fpn = ResNetFpn::new(ResNetFpnConfig::micro());
    let mut sh = RevShNet::new(RevShNetConfig::micro());
    let mut rng = StdRng::seed_from_u64(0);
    for n in [1, 2] {
        let x = Tensor::randn(Shape::new(n, 3, res, res), 1.0, &mut rng);
        let full = CacheMode::Full;
        let measured = [
            cached_by(&mut eff, |m| drop(m.forward(&x, full))),
            cached_by(&mut hr, |m| drop(m.forward(&x, full))),
            cached_by(&mut fpn, |m| drop(m.forward(&x, full))),
            cached_by(&mut sh, |m| drop(m.forward(&x, full))),
        ];
        let analytic = [
            eff.activation_bytes_at(n, res, Accounting::Layout),
            hr.activation_bytes_at(n, res),
            fpn.activation_bytes_at(n, res),
            sh.activation_bytes_conv(n, res, Accounting::Layout),
        ];
        let names = ["efficientnet", "hrnet", "resnet-fpn", "revshnet"];
        for ((name, measured), analytic) in names.into_iter().zip(measured).zip(analytic) {
            assert_eq!(measured, analytic, "{name} at batch {n}: meter vs analytic");
        }
    }
}
