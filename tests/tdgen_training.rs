//! TDGEN acceptance properties (paper §V, Fig 8):
//!
//! (a) the piecewise degree-5 log-log interpolant of a [`Curve::sweep`] is
//!     **exact at its knots** and keeps a bounded q-error between them, on
//!     real (skeleton, assignment) runtime curves from the simulator;
//! (b) **β-pruning is sound**: every draw of the assignment walk is
//!     feasible (cross-checked against an independent brute force over all
//!     `k^n` codes) and stays within β switches, and `β = usize::MAX` lifts
//!     the bound;
//! (c) both [`TrainingSource`] implementations are **deterministic**:
//!     the same seed reproduces a bit-identical [`TrainingSet`].

use robopt_ml::{q_error, SimulatorSource, TrainingSet, TrainingSource};
use robopt_plan::{SplitMix64, N_OPERATOR_KINDS};
use robopt_platforms::{PlatformId, PlatformRegistry, RuntimeSimulator};
use robopt_tdgen::{
    log_knots, max_switches, sample_assignment, sample_skeleton, Curve, JobSkeleton, ShapeKind,
    TdgenConfig, TdgenGenerator, BETA, KNOTS, SCALE_RANGE,
};
use robopt_vector::FeatureLayout;

fn named_setup() -> (PlatformRegistry, FeatureLayout) {
    let registry = PlatformRegistry::named();
    let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
    (registry, layout)
}

/// Property (a): on noiseless simulator curves the fit reproduces every
/// knot to roundoff, and synthesized labels between knots stay within a
/// small q-error of direct simulation.
#[test]
fn interpolant_is_exact_at_knots_and_bounded_between_them() {
    let (registry, _) = named_setup();
    let sim = RuntimeSimulator::new(&registry, 42).with_noise(0.0);
    let mut rng = SplitMix64::new(0x07d9_ef17);
    let mut q_sum = 0.0;
    let mut probes = 0usize;
    let mut curves = 0usize;
    while curves < 12 {
        let shape = ShapeKind::ALL[rng.gen_range(ShapeKind::ALL.len())];
        let n_ops = shape.min_ops() + rng.gen_range(6);
        let skel = sample_skeleton(&mut rng, &registry, shape, n_ops);
        let Some(assign) = sample_assignment(&skel, &registry, BETA, &mut rng, 64) else {
            continue;
        };
        let Ok(curve) = Curve::sweep(&skel, &assign, &sim) else {
            continue;
        };
        assert_eq!(curve.scales, log_knots(SCALE_RANGE.0, SCALE_RANGE.1, KNOTS));

        // Knot exactness: the Newton form must pass through its own data.
        for ((&scale, &y), &s) in curve.scales.iter().zip(&curve.labels).zip(&curve.seconds) {
            let at_knot = curve.label_at(scale.ln());
            assert!(
                (at_knot - y).abs() <= 1e-9 * (1.0 + y.abs()),
                "curve {curves}: knot at scale {scale} drifted: {at_knot} vs {y}"
            );
            assert!(q_error(TrainingSet::label_to_seconds(at_knot), s) < 1.0 + 1e-6);
        }

        // Held-out scales: bounded q-error against direct simulation.
        let (lln, hln) = (curve.scales[0].ln(), curve.scales[KNOTS - 1].ln());
        for _ in 0..16 {
            let ln_s = lln + (hln - lln) * rng.next_f64();
            let predicted = TrainingSet::label_to_seconds(curve.label_at(ln_s));
            let actual = sim.simulate_raw(&skel.instantiate(ln_s.exp()), &assign);
            let q = q_error(predicted, actual);
            assert!(
                q < 10.0,
                "curve {curves}: runaway interpolation q-error {q} at ln-scale {ln_s}"
            );
            q_sum += q;
            probes += 1;
        }
        curves += 1;
    }
    let q_mean = q_sum / probes as f64;
    assert!(
        q_mean < 1.25,
        "mean held-out q-error {q_mean} over {probes} probes is too loose"
    );
}

/// Independent brute force over all `k^n` platform codes: feasible means
/// every operator's kind is available on its platform and every edge
/// connects convertible platforms. Deliberately shares no code with
/// `sample_assignment`.
fn brute_force_feasible(skel: &JobSkeleton, registry: &PlatformRegistry) -> Vec<Vec<u8>> {
    let k = registry.len();
    let n = skel.n_ops();
    let mut out = Vec::new();
    for mut code in 0..(k as u64).pow(n as u32) {
        let mut assign = vec![0u8; n];
        for slot in assign.iter_mut() {
            *slot = (code % k as u64) as u8;
            code /= k as u64;
        }
        let kinds_ok = assign.iter().enumerate().all(|(op, &p)| {
            registry.is_available(skel.ops[op].kind, PlatformId::from_index(p as usize))
        });
        let edges_ok = skel.edges.iter().all(|&(u, v)| {
            registry.convertible(
                PlatformId::from_index(assign[u as usize] as usize),
                PlatformId::from_index(assign[v as usize] as usize),
            )
        });
        if kinds_ok && edges_ok {
            out.push(assign);
        }
    }
    out
}

/// Property (b): every draw of the β-bounded walk — TDGEN's one assignment
/// drawer — lies in the brute-force feasible set within β switches, the
/// walk draws whenever that set holds a β-bounded assignment, and with the
/// bound off (`β = usize::MAX`) it draws feasible assignments past [`BETA`].
#[test]
fn beta_pruning_is_sound_and_max_beta_recovers_the_feasible_set() {
    let (registry, _) = named_setup();
    let mut rng = SplitMix64::new(0xbe7a);
    for (case, &shape) in ShapeKind::ALL.iter().enumerate() {
        // Keep n small: the cross-check enumerates all 5^n codes.
        let n_ops = shape.min_ops().max(5);
        let skel = sample_skeleton(&mut rng, &registry, shape, n_ops);
        let brute = brute_force_feasible(&skel, &registry);
        let name = shape.name();

        for beta in [0, 1, 2, BETA, usize::MAX] {
            let bounded = brute.iter().any(|a| max_switches(&skel, a) <= beta);
            let mut most = 0;
            for draw in 0..32 {
                let Some(a) = sample_assignment(&skel, &registry, beta, &mut rng, 64) else {
                    assert!(
                        !bounded,
                        "case {case} ({name}) draw {draw}: beta = {beta} stranded"
                    );
                    continue;
                };
                assert!(
                    brute.contains(&a),
                    "case {case} ({name}) draw {draw}: infeasible assignment {a:?}"
                );
                let switches = max_switches(&skel, &a);
                assert!(
                    switches <= beta,
                    "case {case} ({name}) draw {draw}: {a:?} exceeds beta = {beta}"
                );
                most = most.max(switches);
            }
            if beta == usize::MAX && brute.iter().any(|a| max_switches(&skel, a) > BETA) {
                assert!(
                    most > BETA,
                    "case {case} ({name}): the unbounded walk stays within BETA"
                );
            }
        }
    }
}

fn assert_bit_identical(a: &TrainingSet, b: &TrainingSet) {
    assert_eq!(a.layout, b.layout);
    assert_eq!(a.rows, b.rows, "feature matrices must match bit for bit");
    assert_eq!(a.labels, b.labels, "labels must match bit for bit");
    assert_eq!(a.seconds, b.seconds, "seconds must match bit for bit");
}

/// Property (c): both sources are pure functions of (config, call
/// sequence) — equal seeds reproduce bit-identical sets, and the split
/// `generate(n); generate(n)` stream equals one `generate(2n)` draw.
#[test]
fn equal_seeds_reproduce_bit_identical_training_sets() {
    let (registry, layout) = named_setup();

    let tdgen = |seed| TdgenGenerator::new(&registry, layout, TdgenConfig::new().with_seed(seed));
    let once = tdgen(0x000d_5eed).generate(120);
    let again = tdgen(0x000d_5eed).generate(120);
    assert_eq!(once.len(), 120);
    assert_bit_identical(&once, &again);

    let mut split = tdgen(0x000d_5eed);
    let first = split.generate(60);
    let second = split.generate(60);
    assert_eq!(&once.labels[..60], &first.labels[..]);
    assert_eq!(&once.labels[60..], &second.labels[..]);

    let reseeded = tdgen(0x000d_5eee).generate(120);
    assert_ne!(once.labels, reseeded.labels, "the seed must matter");

    let direct = || SimulatorSource::new(&registry, layout, 0x5eed, 0.05);
    let direct_a = direct().generate(80);
    let direct_b = direct().generate(80);
    assert_bit_identical(&direct_a, &direct_b);
}

/// The `TrainingSource` seam: a harness holding only `&mut dyn
/// TrainingSource` gets layout-consistent sets from either provenance.
#[test]
fn dyn_sources_agree_on_the_layout_contract() {
    let (registry, layout) = named_setup();
    let mut tdgen = TdgenGenerator::new(&registry, layout, TdgenConfig::new());
    let mut direct = SimulatorSource::new(&registry, layout, 7, 0.05);
    let sources: [&mut dyn TrainingSource; 2] = [&mut tdgen, &mut direct];
    for source in sources {
        assert_eq!(source.layout(), layout);
        let set = source.generate(24);
        assert_eq!(set.len(), 24);
        assert_eq!(set.width(), layout.width);
        assert!(set.labels.iter().all(|l| l.is_finite()));
        for (&label, &seconds) in set.labels.iter().zip(&set.seconds) {
            assert!(
                (TrainingSet::label_to_seconds(label) - seconds).abs()
                    <= 1e-9 * (1.0 + seconds.abs()),
                "labels and seconds must stay inverse transforms"
            );
        }
    }
}
