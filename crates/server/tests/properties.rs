//! Property-based tests of the server/workload substrate invariants.

use greenhetero_core::types::{Ratio, ServerId, Watts};
use greenhetero_server::ground_truth::GroundTruth;
use greenhetero_server::platform::PlatformKind;
use greenhetero_server::rack::{Combination, Rack};
use greenhetero_server::server::SimServer;
use greenhetero_server::workload::WorkloadKind;
use proptest::prelude::*;

fn arb_platform() -> impl Strategy<Value = PlatformKind> {
    proptest::sample::select(PlatformKind::ALL.to_vec())
}

fn arb_cpu_workload() -> impl Strategy<Value = WorkloadKind> {
    proptest::sample::select(WorkloadKind::ALL.to_vec())
}

proptest! {
    /// Ground-truth throughput is monotone non-decreasing in power, zero
    /// below idle, and saturates at the workload peak, for every valid
    /// (platform, workload) pair.
    // Below idle the model returns a literal 0.0, so exact equality is
    // the intended check.
    #[test]
    #[allow(clippy::float_cmp)]
    fn throughput_monotone_everywhere(
        platform in arb_platform(),
        workload in arb_cpu_workload(),
        powers in proptest::collection::vec(0.0..600.0f64, 2..30),
    ) {
        let Ok(gt) = GroundTruth::new(platform, workload) else {
            return Ok(()); // CPU-only workload on the GPU: nothing to test
        };
        let mut sorted = powers.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = -1.0;
        for p in sorted {
            let t = gt.throughput(Watts::new(p)).value();
            prop_assert!(t >= last - 1e-9, "{platform}/{workload} dipped at {p} W");
            prop_assert!(t <= gt.t_max().value() + 1e-9);
            if p < gt.envelope().idle().value() {
                prop_assert_eq!(t, 0.0);
            }
            last = t;
        }
    }

    /// Draw never exceeds allocation, peak, or demand; throughput never
    /// exceeds the offered load's cap.
    #[test]
    fn draw_and_throughput_bounds(
        platform in arb_platform(),
        workload in arb_cpu_workload(),
        alloc in 0.0..600.0f64,
        intensity in 0.0..=1.0f64,
    ) {
        let Ok(gt) = GroundTruth::new(platform, workload) else {
            return Ok(());
        };
        let o = Ratio::saturating(intensity);
        let draw = gt.draw_at(Watts::new(alloc), o);
        prop_assert!(draw.value() <= alloc + 1e-9);
        prop_assert!(draw.value() <= gt.envelope().peak().value() + 1e-9);
        prop_assert!(draw.value() <= gt.demand_at(o).value() + 1e-9);
        let thr = gt.throughput_at(Watts::new(alloc), o);
        prop_assert!(thr.value() <= o.value() * gt.t_max().value() + 1e-9);
    }

    /// A capped simulated server never draws more than its cap, and its
    /// throughput is monotone in the cap.
    #[test]
    fn capped_server_honors_caps(
        platform in arb_platform(),
        cap_a in 0.0..400.0f64,
        cap_b in 0.0..400.0f64,
    ) {
        let workload = WorkloadKind::SradV1; // runs on every platform incl. GPU
        let server = SimServer::new(ServerId::new(0), platform, workload).unwrap();
        let (lo, hi) = if cap_a <= cap_b { (cap_a, cap_b) } else { (cap_b, cap_a) };

        let low = server.run_capped(Watts::new(lo), Ratio::ONE);
        let high = server.run_capped(Watts::new(hi), Ratio::ONE);

        prop_assert!(low.power.value() <= lo + 1e-9);
        prop_assert!(high.power.value() <= hi + 1e-9);
        prop_assert!(high.throughput.value() >= low.throughput.value() - 1e-9);
    }

    /// Rack measurements aggregate exactly: totals equal the per-group
    /// sums, group order matches the controller spec, online counts clamp
    /// to the group size, and the allocation-free oracle totals equal the
    /// measurements' totals bit for bit, on every combination.
    #[test]
    fn rack_measurement_aggregates(
        comb in proptest::sample::select(Combination::ALL.to_vec()),
        workload in arb_cpu_workload(),
        per_type in 1u32..5,
        allocs in proptest::collection::vec(0.0..300.0f64, 3),
        online in proptest::collection::vec(0u32..8, 3),
        intensity in 0.1..=1.0f64,
    ) {
        // Comb6's GPU runs only Rodinia; SradV1 runs on every platform.
        let rack = Rack::combination(comb, per_type, workload)
            .or_else(|_| Rack::combination(comb, per_type, WorkloadKind::SradV1))
            .unwrap();
        let groups = rack.groups().len();
        let alloc: Vec<Watts> = allocs[..groups].iter().map(|&w| Watts::new(w)).collect();
        // Draws of 0..8 against groups of 1..=4: dark, partial and above
        // the group size.
        let online = &online[..groups];
        let o = Ratio::saturating(intensity);

        let m = rack.measure(&alloc, o);
        let sum_power: f64 = m.groups.iter().map(|g| g.total_power().value()).sum();
        let sum_thr: f64 = m.groups.iter().map(|g| g.total_throughput().value()).sum();
        prop_assert!((m.total_power().value() - sum_power).abs() < 1e-9);
        prop_assert!((m.total_throughput().value() - sum_thr).abs() < 1e-9);
        prop_assert_eq!(
            rack.measured_throughput(&alloc, o).value().to_bits(),
            m.total_throughput().value().to_bits()
        );
        // Group counts match the composition.
        for g in &m.groups {
            prop_assert_eq!(g.count, per_type);
        }

        let active = rack.measure_active(&alloc, online, o);
        for ((g, full), &n) in active.groups.iter().zip(&m.groups).zip(online) {
            prop_assert_eq!(g.count, n.min(per_type));
            if n > 0 {
                prop_assert_eq!(g.sample, full.sample);
            } else {
                prop_assert!(g.sample.power.is_zero() && g.total_throughput().value() == 0.0);
            }
        }
        prop_assert_eq!(
            rack.measured_throughput_active(&alloc, online, o).value().to_bits(),
            active.total_throughput().value().to_bits()
        );

        // The controller spec mirrors the rack's structure.
        let spec = rack.controller_spec().unwrap();
        prop_assert_eq!(spec.groups.len(), groups);
        prop_assert!(spec.peak_demand().value() > 0.0);
    }

    /// Training sweeps produce non-decreasing power points within the
    /// productive envelope, strictly increasing under saturating load —
    /// the precondition for a well-conditioned quadratic fit. (At partial
    /// load the top states saturate at the demand draw, so duplicates are
    /// physical there.)
    #[test]
    fn training_sweep_well_conditioned(
        samples in 2usize..10,
        intensity in 0.5..=1.0f64,
    ) {
        let rack = Rack::combination(Combination::Comb3, 2, WorkloadKind::Freqmine).unwrap();
        for gi in 0..rack.groups().len() {
            let sweep = rack.training_sweep(gi, samples, Ratio::saturating(intensity));
            prop_assert_eq!(sweep.len(), samples);
            let envelope = rack.groups()[gi].server().truth().envelope();
            for pair in sweep.windows(2) {
                prop_assert!(pair[1].power >= pair[0].power);
                if intensity >= 0.999 {
                    prop_assert!(pair[1].power > pair[0].power);
                }
            }
            for s in &sweep {
                prop_assert!(s.power.value() <= envelope.peak().value() + 1e-6);
            }
        }
    }
}
