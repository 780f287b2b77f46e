//! Platform identifiers, descriptors, and the [`PlatformRegistry`].
//!
//! The registry is the single source of truth the optimizer consults for
//! *which* platforms exist, *what* each one can execute (one availability
//! bitmask per operator kind), and *how much* moving data between them
//! costs (the conversion graph). `robopt_core::EnumOptions` carries a
//! `&PlatformRegistry`, so every enumerator — vector-based, object-graph
//! baseline, exhaustive — resolves platforms against the same registry
//! instead of assuming dense ids `0..k`.

use robopt_plan::{LogicalPlan, Operator, OperatorKind, N_OPERATOR_KINDS};

use crate::channels::ConversionGraph;

/// Maximum number of platforms a registry may hold. Matches the Fig-5
/// feature layout's platform-dimension bound and the `u8` width of the
/// per-kind availability masks.
pub const MAX_PLATFORMS: usize = 8;

/// Seconds per oracle cost unit on the simulated cluster: per unit of
/// [`Platform::fixed_cost`], and per unit of conversion channel cost.
const C_FIXED: f64 = 0.05;

/// Per-iteration loop-synchronization surcharge on a `RepeatLoop`'s fixed
/// cost.
const LOOP_SYNC_FACTOR: f64 = 0.25;

/// Opaque platform identifier: an index into one [`PlatformRegistry`].
///
/// Replaces the former `pub type PlatformId = u8` placeholder. Ids are only
/// meaningful relative to the registry that issued them; constructing one
/// out of range is a programming error (debug-asserted, never silently
/// wrapped — the old `p % F.len()` aliasing bug class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct PlatformId(u8);

impl PlatformId {
    /// Id from a dense registry index. Debug-asserts `index < MAX_PLATFORMS`.
    #[inline]
    pub const fn from_index(index: usize) -> Self {
        debug_assert!(index < MAX_PLATFORMS, "platform index out of range");
        PlatformId(index as u8)
    }

    /// Dense registry index of this platform.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw `u8` representation (the enumeration matrices store assignments
    /// as raw bytes; see `robopt_vector::EnumMatrix`).
    #[inline]
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl std::fmt::Display for PlatformId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "platform#{}", self.0)
    }
}

/// Descriptor of one execution platform.
///
/// The two cost scales (`fixed_cost`, `tuple_rate`) feed the analytic
/// cost-model weights in `robopt_core`; the remaining fields parameterize
/// the [`crate::simulator::RuntimeSimulator`] (DESIGN §2): parallelism,
/// job-startup floor, and the memory cliff past which the simulator charges
/// a spill penalty.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable name, unique within a registry.
    pub name: String,
    /// Fixed per-operator-instance cost scale (startup/instantiation of one
    /// execution operator on this platform).
    pub fixed_cost: f64,
    /// Processing cost per input tuple (single-threaded).
    pub tuple_rate: f64,
    /// Degree of parallelism the simulator divides tuple work by.
    pub parallelism: f64,
    /// One-time job startup latency in seconds (simulator).
    pub startup_s: f64,
    /// Memory budget in bytes before the simulator charges a spill penalty.
    pub mem_bytes: f64,
}

impl Platform {
    /// A descriptor with neutral defaults; tune with the `with_*` builders.
    pub fn new(name: &str) -> Self {
        Platform {
            name: name.to_string(),
            fixed_cost: 1.0,
            tuple_rate: 1e-6,
            parallelism: 1.0,
            startup_s: 0.1,
            mem_bytes: 8e9,
        }
    }

    pub fn with_fixed_cost(mut self, fixed_cost: f64) -> Self {
        self.fixed_cost = fixed_cost;
        self
    }

    pub fn with_tuple_rate(mut self, tuple_rate: f64) -> Self {
        self.tuple_rate = tuple_rate;
        self
    }

    pub fn with_parallelism(mut self, parallelism: f64) -> Self {
        self.parallelism = parallelism;
        self
    }

    pub fn with_startup_s(mut self, startup_s: f64) -> Self {
        self.startup_s = startup_s;
        self
    }

    pub fn with_mem_bytes(mut self, mem_bytes: f64) -> Self {
        self.mem_bytes = mem_bytes;
        self
    }

    /// Modeled fixed seconds of running `op` here: `fixed_cost · C_FIXED`,
    /// times `1 + LOOP_SYNC_FACTOR · iterations` for a `RepeatLoop` with a
    /// trip count (inert loops multiply by exactly 1.0).
    #[inline]
    pub fn fixed_seconds(&self, op: &Operator) -> f64 {
        let loop_fixed = if op.kind == OperatorKind::RepeatLoop && op.iterations >= 1 {
            1.0 + LOOP_SYNC_FACTOR * f64::from(op.iterations)
        } else {
            1.0
        };
        self.fixed_cost * C_FIXED * loop_fixed
    }
}

/// The platform registry: descriptors + availability masks + conversion
/// graph (COT), built once and borrowed by everything downstream.
#[derive(Debug, Clone)]
pub struct PlatformRegistry {
    platforms: Vec<Platform>,
    /// RHEEMix's execution-operator availability (Kruse et al.): bit `p` of
    /// `available[kind]` is set iff `kind` can execute on platform `p`.
    /// Enumeration never places an operator on a platform without it.
    available: [u8; N_OPERATOR_KINDS],
    conversions: ConversionGraph,
}

impl PlatformRegistry {
    /// Start building a custom registry.
    pub fn builder() -> RegistryBuilder {
        RegistryBuilder {
            platforms: Vec::new(),
            available: [u8::MAX; N_OPERATOR_KINDS],
            channels: Vec::new(),
        }
    }

    /// The five named platforms of the paper's testbed (DESIGN §2):
    /// Java streams, Spark, Flink, Postgres, Giraph — each with a realistic
    /// availability profile and pairwise conversion channels (everything
    /// except Postgres↔Giraph has a direct channel; that pair routes
    /// through a third platform).
    pub fn named() -> Self {
        let mut b = PlatformRegistry::builder();
        let java = b.add(
            Platform::new("java")
                .with_fixed_cost(0.6)
                .with_tuple_rate(2.0e-6)
                .with_parallelism(1.0)
                .with_startup_s(0.05)
                .with_mem_bytes(4e9),
        );
        let spark = b.add(
            Platform::new("spark")
                .with_fixed_cost(40.0)
                .with_tuple_rate(1.1e-7)
                .with_parallelism(40.0)
                .with_startup_s(8.0)
                .with_mem_bytes(2.56e11),
        );
        let flink = b.add(
            Platform::new("flink")
                .with_fixed_cost(32.0)
                .with_tuple_rate(1.5e-7)
                .with_parallelism(40.0)
                .with_startup_s(6.0)
                .with_mem_bytes(2.56e11),
        );
        let postgres = b.add(
            Platform::new("postgres")
                .with_fixed_cost(3.0)
                .with_tuple_rate(8.0e-7)
                .with_parallelism(4.0)
                .with_startup_s(0.5)
                .with_mem_bytes(6.4e10),
        );
        let giraph = b.add(
            Platform::new("giraph")
                .with_fixed_cost(48.0)
                .with_tuple_rate(3.0e-7)
                .with_parallelism(40.0)
                .with_startup_s(10.0)
                .with_mem_bytes(2.56e11),
        );

        // Availability: Java and Spark execute the full operator algebra;
        // Flink lacks a table scan; Postgres executes the relational subset;
        // Giraph only the graph/iteration subset.
        b.restrict(
            postgres,
            &[
                OperatorKind::TableSource,
                OperatorKind::Filter,
                OperatorKind::Map,
                OperatorKind::Join,
                OperatorKind::GroupByKey,
                OperatorKind::ReduceByKey,
                OperatorKind::Aggregate,
                OperatorKind::Distinct,
                OperatorKind::Sort,
                OperatorKind::Count,
                OperatorKind::GlobalReduce,
                OperatorKind::Union,
                OperatorKind::Intersect,
                OperatorKind::CartesianProduct,
            ],
        );
        b.restrict(
            giraph,
            &[
                OperatorKind::Map,
                OperatorKind::FlatMap,
                OperatorKind::Filter,
                OperatorKind::ReduceByKey,
                OperatorKind::GroupByKey,
                OperatorKind::GlobalReduce,
                OperatorKind::Count,
                OperatorKind::Cache,
                OperatorKind::Broadcast,
                OperatorKind::RepeatLoop,
            ],
        );
        b.forbid(flink, OperatorKind::TableSource);
        // Result collection happens on the driver-capable engines only.
        b.restrict_kind(OperatorKind::LocalCallbackSink, &[java, spark, flink]);

        // Channels: symmetric endpoint costs (serialize out of one format +
        // materialize into the other), summed per direct edge.
        const CHAN: [(f64, f64); 5] = [
            (0.4, 4.0e-7), // java: in-process collections
            (2.2, 6.0e-7), // spark: RDD (de)serialization
            (2.2, 6.0e-7), // flink: dataset (de)serialization
            (3.6, 1.6e-6), // postgres: COPY in/out of tables
            (2.8, 8.0e-7), // giraph: vertex/edge file staging
        ];
        let ids = [java, spark, flink, postgres, giraph];
        for (i, &a) in ids.iter().enumerate() {
            for (j, &bid) in ids.iter().enumerate() {
                if i >= j {
                    continue;
                }
                // No direct Postgres<->Giraph channel: relational tables and
                // vertex sets only meet through a third platform's format.
                if (a == postgres && bid == giraph) || (a == giraph && bid == postgres) {
                    continue;
                }
                let fixed = CHAN[i].0 + CHAN[j].0;
                let rate = CHAN[i].1 + CHAN[j].1;
                b.connect(a, bid, fixed, rate);
            }
        }
        b.build()
    }

    /// A uniform synthetic registry of `k` platforms: every operator kind is
    /// available everywhere and every ordered pair has a direct conversion
    /// channel. Platform cost scales reproduce the dense-id analytic oracle
    /// of PR 1 exactly (same per-platform factor table, now registry data
    /// instead of a hard-coded table inside the oracle), so enumeration over
    /// `uniform(k)` is the "old dense-id" behaviour by construction.
    pub fn uniform(k: usize) -> Self {
        assert!(
            (1..=MAX_PLATFORMS).contains(&k),
            "uniform registry supports 1..={MAX_PLATFORMS} platforms, got {k}"
        );
        /// The PR-1 per-platform cost factors, preserved as registry data.
        const FACTORS: [f64; MAX_PLATFORMS] = [1.0, 0.55, 1.7, 0.8, 1.25, 0.65, 1.45, 0.9];
        let mut b = PlatformRegistry::builder();
        let ids: Vec<PlatformId> = (0..k)
            .map(|i| {
                b.add(
                    Platform::new(&format!("p{i}"))
                        .with_fixed_cost(FACTORS[i])
                        .with_tuple_rate(2e-6 * FACTORS[i]),
                )
            })
            .collect();
        for &from in &ids {
            for &to in &ids {
                if from != to {
                    // Directed: the per-tuple leg prices materialization
                    // *into* the destination platform.
                    b.connect_directed(from, to, 5.0, 8e-6 * FACTORS[to.index()]);
                }
            }
        }
        b.build()
    }

    /// Number of registered platforms.
    #[inline]
    pub fn len(&self) -> usize {
        self.platforms.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.platforms.is_empty()
    }

    /// All platform ids, in dense registration order.
    pub fn ids(&self) -> impl Iterator<Item = PlatformId> + '_ {
        (0..self.platforms.len()).map(PlatformId::from_index)
    }

    /// Descriptor of `id`. Debug-asserts the id belongs to this registry.
    #[inline]
    pub fn platform(&self, id: PlatformId) -> &Platform {
        debug_assert!(
            id.index() < self.platforms.len(),
            "{id} out of range for a registry of {} platforms",
            self.platforms.len()
        );
        &self.platforms[id.index()]
    }

    /// Look a platform up by name.
    pub fn by_name(&self, name: &str) -> Option<PlatformId> {
        self.platforms
            .iter()
            .position(|p| p.name == name)
            .map(PlatformId::from_index)
    }

    /// Can `kind` execute on `platform`?
    #[inline]
    pub fn is_available(&self, kind: OperatorKind, platform: PlatformId) -> bool {
        debug_assert!(
            platform.index() < self.platforms.len(),
            "{platform} out of range for a registry of {} platforms",
            self.platforms.len()
        );
        self.available[kind.index()] & 1 << platform.index() != 0
    }

    /// Platforms that can execute `kind`, in dense order.
    pub fn available_platforms(&self, kind: OperatorKind) -> impl Iterator<Item = PlatformId> + '_ {
        self.ids().filter(move |&p| self.is_available(kind, p))
    }

    /// The conversion graph (COT) with precomputed all-pairs cheapest paths.
    #[inline]
    pub fn conversions(&self) -> &ConversionGraph {
        &self.conversions
    }

    /// True if data produced on `from` can reach `to` (possibly multi-hop).
    #[inline]
    pub fn convertible(&self, from: PlatformId, to: PlatformId) -> bool {
        self.conversions.path(from, to).is_some()
    }

    /// Modeled seconds of moving `tuples` tuples `from -> to` along the
    /// cheapest path: its cost at `C_FIXED` seconds per unit (`0.0` when
    /// `from == to`, `f64::INFINITY` when infeasible).
    #[inline]
    pub fn conversion_seconds(&self, from: PlatformId, to: PlatformId, tuples: f64) -> f64 {
        self.conversions.cost(from, to, tuples) * C_FIXED
    }

    /// Is `plan` executable with operator `i` placed on `platform_of(i)`?
    /// Every operator must be available on its platform and every dataflow
    /// edge that crosses platforms convertible.
    pub fn feasible(&self, plan: &LogicalPlan, platform_of: impl Fn(usize) -> PlatformId) -> bool {
        let available = |op: u32| self.is_available(plan.op(op).kind, platform_of(op as usize));
        (0..plan.n_ops() as u32).all(available)
            && plan.edges().iter().all(|&(u, v)| {
                let (pu, pv) = (platform_of(u as usize), platform_of(v as usize));
                pu == pv || self.convertible(pu, pv)
            })
    }

    /// Hand `charge` the plan-level charges of a [`Self::feasible`]
    /// placement, one at a time, in the one order every backend adds them:
    /// the `startup_s` of each platform the placement uses, in id order,
    /// then the [`Self::conversion_seconds`] of each edge `(u, v)` whose
    /// endpoints differ, in edge order, moving `tuples(u)` tuples. The
    /// per-operator [`Platform::fixed_seconds`] are the caller's to add.
    pub fn charge_walk(
        &self,
        plan: &LogicalPlan,
        platform_of: impl Fn(usize) -> PlatformId,
        tuples: impl Fn(usize) -> f64,
        mut charge: impl FnMut(f64),
    ) {
        let used = (0..plan.n_ops()).fold(0u8, |mask, i| mask | 1 << platform_of(i).index());
        for p in self.ids().filter(|p| used & 1 << p.index() != 0) {
            charge(self.platform(p).startup_s);
        }
        for &(u, v) in plan.edges() {
            let (pu, pv) = (platform_of(u as usize), platform_of(v as usize));
            if pu != pv {
                charge(self.conversion_seconds(pu, pv, tuples(u as usize)));
            }
        }
    }
}

/// Incremental [`PlatformRegistry`] construction. Every kind starts out
/// available on every platform; `restrict`, `forbid` and `restrict_kind`
/// rewrite those masks in the order they are called.
#[derive(Debug)]
pub struct RegistryBuilder {
    platforms: Vec<Platform>,
    available: [u8; N_OPERATOR_KINDS],
    channels: Vec<(PlatformId, PlatformId, f64, f64)>,
}

impl RegistryBuilder {
    /// Register a platform; returns its id. Panics past [`MAX_PLATFORMS`]
    /// or on a duplicate name.
    pub fn add(&mut self, platform: Platform) -> PlatformId {
        assert!(
            self.platforms.len() < MAX_PLATFORMS,
            "registry holds at most {MAX_PLATFORMS} platforms"
        );
        assert!(
            self.platforms.iter().all(|p| p.name != platform.name),
            "duplicate platform name {:?}",
            platform.name
        );
        let id = PlatformId::from_index(self.platforms.len());
        self.platforms.push(platform);
        id
    }

    /// Restrict `platform` to exactly the listed operator kinds.
    pub fn restrict(&mut self, platform: PlatformId, kinds: &[OperatorKind]) -> &mut Self {
        let bit = 1 << platform.index();
        for kind in OperatorKind::ALL {
            let mask = &mut self.available[kind.index()];
            *mask = if kinds.contains(&kind) {
                *mask | bit
            } else {
                *mask & !bit
            };
        }
        self
    }

    /// Mark one operator kind unavailable on `platform`.
    pub fn forbid(&mut self, platform: PlatformId, kind: OperatorKind) -> &mut Self {
        self.available[kind.index()] &= !(1 << platform.index());
        self
    }

    /// Restrict `kind` to exactly the listed platforms.
    pub fn restrict_kind(&mut self, kind: OperatorKind, platforms: &[PlatformId]) -> &mut Self {
        self.available[kind.index()] = platforms.iter().fold(0, |m, p| m | 1 << p.index());
        self
    }

    /// Declare a symmetric direct conversion channel between `a` and `b`.
    pub fn connect(
        &mut self,
        a: PlatformId,
        b: PlatformId,
        fixed: f64,
        per_tuple: f64,
    ) -> &mut Self {
        self.channels.push((a, b, fixed, per_tuple));
        self.channels.push((b, a, fixed, per_tuple));
        self
    }

    /// Declare a one-way direct conversion channel `from -> to`.
    pub fn connect_directed(
        &mut self,
        from: PlatformId,
        to: PlatformId,
        fixed: f64,
        per_tuple: f64,
    ) -> &mut Self {
        self.channels.push((from, to, fixed, per_tuple));
        self
    }

    /// Finalize: drops mask bits past the last platform, runs all-pairs
    /// cheapest conversion paths, and checks every operator kind is
    /// executable on at least one platform.
    pub fn build(self) -> PlatformRegistry {
        let k = self.platforms.len();
        assert!(k >= 1, "a registry needs at least one platform");
        let every_platform = ((1u16 << k) - 1) as u8;
        let available = self.available.map(|mask| mask & every_platform);
        for kind in OperatorKind::ALL {
            assert!(
                available[kind.index()] != 0,
                "operator kind {kind:?} is unavailable on every platform"
            );
        }
        debug_assert_eq!(N_OPERATOR_KINDS, OperatorKind::ALL.len());
        let conversions = ConversionGraph::from_channels(k, &self.channels);
        PlatformRegistry {
            platforms: self.platforms,
            available,
            conversions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_registry_has_five_platforms_with_unique_names() {
        let reg = PlatformRegistry::named();
        assert_eq!(reg.len(), 5);
        for name in ["java", "spark", "flink", "postgres", "giraph"] {
            assert!(reg.by_name(name).is_some(), "missing platform {name}");
        }
        assert!(reg.by_name("graphchi").is_none());
    }

    #[test]
    fn registry_holds_up_to_max_platforms() {
        let mut b = PlatformRegistry::builder();
        for i in 0..MAX_PLATFORMS {
            b.add(Platform::new(&format!("x{i}")));
        }
        let reg = b.build();
        assert_eq!(reg.len(), MAX_PLATFORMS);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn registry_rejects_a_ninth_platform() {
        let mut b = PlatformRegistry::builder();
        for i in 0..=MAX_PLATFORMS {
            b.add(Platform::new(&format!("x{i}")));
        }
    }

    #[test]
    #[should_panic(expected = "unavailable on every platform")]
    fn build_rejects_globally_unavailable_kinds() {
        let mut b = PlatformRegistry::builder();
        let only = b.add(Platform::new("only"));
        b.restrict(only, &[OperatorKind::Map]);
        b.build();
    }

    /// `n` bare platforms `x0..`, handed to `configure` before `build`.
    fn restricted(
        n: usize,
        configure: impl FnOnce(&mut RegistryBuilder, &[PlatformId]),
    ) -> PlatformRegistry {
        let mut b = PlatformRegistry::builder();
        let ids: Vec<PlatformId> = (0..n)
            .map(|i| b.add(Platform::new(&format!("x{i}"))))
            .collect();
        configure(&mut b, &ids);
        b.build()
    }

    #[test]
    fn restrict_clears_the_platforms_other_kinds() {
        let reg = restricted(2, |b, ids| {
            b.restrict(ids[1], &[OperatorKind::Map, OperatorKind::Filter]);
        });
        let (p0, p1) = (PlatformId::from_index(0), PlatformId::from_index(1));
        assert!(reg.is_available(OperatorKind::Map, p1));
        assert!(reg.is_available(OperatorKind::Filter, p1));
        assert!(!reg.is_available(OperatorKind::Join, p1));
        assert!(reg.is_available(OperatorKind::Join, p0));
    }

    #[test]
    fn restrict_kind_clears_the_kinds_other_platforms() {
        let reg = restricted(4, |b, ids| {
            b.restrict_kind(OperatorKind::LocalCallbackSink, &[ids[2]]);
        });
        let sinks: Vec<PlatformId> = reg
            .available_platforms(OperatorKind::LocalCallbackSink)
            .collect();
        assert_eq!(sinks, [PlatformId::from_index(2)]);
        assert_eq!(reg.available_platforms(OperatorKind::Map).count(), 4);
    }

    #[test]
    fn eight_platforms_do_not_overflow_the_mask() {
        let reg = restricted(MAX_PLATFORMS, |_, _| {});
        for kind in OperatorKind::ALL {
            assert_eq!(reg.available_platforms(kind).count(), MAX_PLATFORMS);
        }
    }

    #[test]
    fn a_forbidden_kind_is_unavailable_on_that_platform_only() {
        let reg = restricted(3, |b, ids| {
            b.forbid(ids[1], OperatorKind::Join);
        });
        for p in reg.ids() {
            assert_eq!(reg.is_available(OperatorKind::Join, p), p.index() != 1);
            assert!(reg.is_available(OperatorKind::Map, p));
        }
    }

    #[test]
    fn restrictions_apply_in_call_order() {
        let reg = restricted(2, |b, ids| {
            b.forbid(ids[1], OperatorKind::Map);
            b.restrict(ids[1], &[OperatorKind::Map]);
        });
        assert!(reg.is_available(OperatorKind::Map, PlatformId::from_index(1)));
        let reg = restricted(2, |b, ids| {
            b.restrict(ids[1], &[OperatorKind::Map]);
            b.forbid(ids[1], OperatorKind::Map);
        });
        assert!(!reg.is_available(OperatorKind::Map, PlatformId::from_index(1)));
    }

    #[test]
    fn java_and_spark_execute_everything_postgres_does_not() {
        let reg = PlatformRegistry::named();
        let java = reg.by_name("java").unwrap();
        let spark = reg.by_name("spark").unwrap();
        let postgres = reg.by_name("postgres").unwrap();
        for kind in OperatorKind::ALL {
            assert!(reg.is_available(kind, java));
            assert!(reg.is_available(kind, spark));
        }
        assert!(reg.is_available(OperatorKind::Join, postgres));
        assert!(!reg.is_available(OperatorKind::TextFileSource, postgres));
        assert!(!reg.is_available(OperatorKind::LocalCallbackSink, postgres));
    }

    #[test]
    fn feasible_needs_every_operator_available_and_every_crossing_convertible() {
        use robopt_plan::workloads::wordcount;
        let mut b = PlatformRegistry::builder();
        let (a, c, island) = (
            b.add(Platform::new("a")),
            b.add(Platform::new("c")),
            b.add(Platform::new("island")),
        );
        b.connect_directed(a, c, 1.0, 0.0);
        b.forbid(c, OperatorKind::ReduceByKey);
        let reg = b.build();
        let plan = wordcount(1e3);
        let sink = plan.n_ops() - 1;
        // One platform crosses no edge: only availability decides.
        assert!(reg.feasible(&plan, |_| a) && reg.feasible(&plan, |_| island));
        assert!(!reg.feasible(&plan, |_| c), "c cannot reduce");
        // a -> c has a channel, c -> a and anything via the island do not.
        assert!(reg.feasible(&plan, |i| if i == sink { c } else { a }));
        assert!(!reg.feasible(&plan, |i| if i == 0 { c } else { a }));
        assert!(!reg.feasible(&plan, |i| if i == sink { island } else { a }));
    }

    #[test]
    fn uniform_registry_is_fully_available_and_fully_convertible() {
        let reg = PlatformRegistry::uniform(5);
        assert_eq!(reg.len(), 5);
        for kind in OperatorKind::ALL {
            assert_eq!(reg.available_platforms(kind).count(), 5);
        }
        for a in reg.ids() {
            for b in reg.ids() {
                assert!(reg.convertible(a, b));
            }
        }
    }
}
