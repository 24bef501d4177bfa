//! The four mapspaces: PFM (perfect factorization, Timeloop-style) and
//! the paper's imperfect expansions Ruby, Ruby-S and Ruby-T.

use rand::seq::SliceRandom;
use rand::Rng;
use ruby_arch::Architecture;
use ruby_mapping::{Mapping, MappingBuilder, SlotKind};
use ruby_telemetry::LazyCounter;
use ruby_workload::{Dim, ProblemShape};

use std::sync::OnceLock;

use crate::constraints::Constraints;
use crate::enumerate::{EnumLimits, EnumTables};
use crate::factor;

/// Sampler draw counter; a no-op unless the `telemetry` feature is on.
static SAMPLES: LazyCounter = LazyCounter::new("mapspace.samples");

/// Which factorization rules the mapspace admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapspaceKind {
    /// Perfect factorization everywhere (the Timeloop baseline, eq. 1).
    Pfm,
    /// Imperfect factorization at every slot (the unconstrained Ruby
    /// space, eq. 5).
    Ruby,
    /// Imperfect factorization only at *spatial* slots; the surviving
    /// temporal extent (`ceil(D / spatial)`) is factorized perfectly.
    RubyS,
    /// Imperfect factorization only at *temporal* slots; spatial factors
    /// must divide the dimension bound.
    RubyT,
}

serde::impl_serde_unit_enum!(MapspaceKind {
    Pfm,
    Ruby,
    RubyS,
    RubyT
});

impl MapspaceKind {
    /// All four kinds, in presentation order.
    pub const ALL: [MapspaceKind; 4] = [
        MapspaceKind::Pfm,
        MapspaceKind::Ruby,
        MapspaceKind::RubyS,
        MapspaceKind::RubyT,
    ];

    /// Display name matching the paper.
    pub const fn name(self) -> &'static str {
        match self {
            MapspaceKind::Pfm => "PFM",
            MapspaceKind::Ruby => "Ruby",
            MapspaceKind::RubyS => "Ruby-S",
            MapspaceKind::RubyT => "Ruby-T",
        }
    }
}

impl std::fmt::Display for MapspaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A mapspace: architecture + workload + constraints + factorization
/// rules. Supports random sampling (the generation half of Timeloop's
/// random-pruned search), exhaustive perfect-space enumeration for toy
/// studies, and tiling-count estimation (Table I).
#[derive(Debug, Clone)]
pub struct Mapspace {
    arch: Architecture,
    shape: ProblemShape,
    constraints: Constraints,
    kind: MapspaceKind,
    /// Enumeration tables, built lazily on first use and shared by
    /// every strategy run against this space. The build walks the full
    /// factorization lattice: over the ResNet-50 and DeepBench layers on
    /// Eyeriss 14×12 and Simba 15,4,4 (PFM, Ruby-S, Ruby) it takes
    /// about 4 ms at the median and 20 ms at p90 on one core of a 2-CPU
    /// x86-64 host, more than a quick search of the space, so it must
    /// not be repeated per search phase. `None` inside the cell records a build failure
    /// (limits exceeded), so callers fall back to the sampler without
    /// retrying the doomed build.
    tables: OnceLock<Option<EnumTables>>,
}

/// Internal per-slot sampling rule for one dimension. Shared with the
/// enumeration backend in [`crate::enumerate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotRule {
    pub(crate) spatial: bool,
    /// Capacity for this dim at this slot: fanout extent if spatial and
    /// allowed, 1 if spatial and disallowed, `None` (unbounded) if
    /// temporal.
    pub(crate) cap: Option<u64>,
    pub(crate) level: usize,
    pub(crate) kind: SlotKind,
}

/// Remaining spatial capacity of one level's fanout, with the owning
/// dimension per axis when exclusivity is enforced.
#[derive(Debug, Clone, Copy)]
struct AxisState {
    x: u64,
    y: u64,
    x_owner: Option<Dim>,
    y_owner: Option<Dim>,
}

impl Mapspace {
    /// Creates an unconstrained mapspace.
    pub fn new(arch: Architecture, shape: ProblemShape, kind: MapspaceKind) -> Self {
        let levels = arch.num_levels();
        Mapspace {
            arch,
            shape,
            constraints: Constraints::unconstrained(levels),
            kind,
            tables: OnceLock::new(),
        }
    }

    /// The enumeration tables for this space, built on first call and
    /// cached for the lifetime of the value. Returns `None` when the
    /// space exceeds [`EnumLimits::default`] (callers fall back to the
    /// rejection sampler).
    pub fn enum_tables(&self) -> Option<&EnumTables> {
        self.tables
            .get_or_init(|| EnumTables::build(self, &EnumLimits::default()).ok())
            .as_ref()
    }

    /// Replaces the constraints.
    ///
    /// # Panics
    ///
    /// Panics if the constraints cover a different number of levels.
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        assert_eq!(
            constraints.num_levels(),
            self.arch.num_levels(),
            "constraints must cover every architecture level"
        );
        self.constraints = constraints;
        // The tables encode the constraints; drop any cached build.
        self.tables = OnceLock::new();
        self
    }

    /// The architecture.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The workload.
    pub fn shape(&self) -> &ProblemShape {
        &self.shape
    }

    /// The constraints.
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// The factorization rules.
    pub fn kind(&self) -> MapspaceKind {
        self.kind
    }

    /// The per-dimension slot rules, innermost slot first, with spatial
    /// caps taken from the per-level axis states (remaining capacity and,
    /// under exclusivity, axis ownership).
    fn slot_rules(&self, dim: Dim, states: &[AxisState]) -> Vec<SlotRule> {
        let layout = ruby_mapping::SlotLayout::new(self.arch.num_levels());
        let exclusive = self.constraints.exclusive_spatial();
        layout
            .iter()
            .map(|slot| {
                let level = layout.level_of(slot);
                let kind = layout.kind_of(slot);
                match kind {
                    SlotKind::Temporal => SlotRule {
                        spatial: false,
                        cap: None,
                        level,
                        kind,
                    },
                    SlotKind::SpatialX => {
                        let allowed = self.constraints.spatial_x(level).contains(dim)
                            && (!exclusive || states[level].x_owner.is_none_or(|o| o == dim));
                        let cap = if allowed { states[level].x } else { 1 };
                        SlotRule {
                            spatial: true,
                            cap: Some(cap),
                            level,
                            kind,
                        }
                    }
                    SlotKind::SpatialY => {
                        let allowed = self.constraints.spatial_y(level).contains(dim)
                            && (!exclusive || states[level].y_owner.is_none_or(|o| o == dim));
                        let cap = if allowed { states[level].y } else { 1 };
                        SlotRule {
                            spatial: true,
                            cap: Some(cap),
                            level,
                            kind,
                        }
                    }
                }
            })
            .collect()
    }

    /// The per-dimension slot rules against *full* (unconsumed) fanouts:
    /// the caps a dimension would see if it were sampled first. The
    /// enumeration backend uses these as per-dimension upper bounds and
    /// re-applies joint fanout sharing (and exclusivity) when combining
    /// dimensions into regions.
    pub(crate) fn slot_rules_full(&self, dim: Dim) -> Vec<SlotRule> {
        let states: Vec<AxisState> = self
            .arch
            .levels()
            .iter()
            .map(|l| AxisState {
                x: l.fanout().x(),
                y: l.fanout().y(),
                x_owner: None,
                y_owner: None,
            })
            .collect();
        self.slot_rules(dim, &states)
    }

    /// Draws one mapping uniformly-ish at random. Sampled mappings always
    /// respect spatial fanout limits and constraints; buffer capacities
    /// are checked later by the cost model, mirroring Timeloop's
    /// generate-then-filter flow.
    ///
    /// Allocates a fresh [`Mapping`] (and sampling scratch) per call;
    /// hot loops should hold a [`Sampler`] and call
    /// [`Sampler::sample_into`] instead.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Mapping {
        // lint: allow(panics) — the all-ones default factorization is
        // valid for every architecture/shape pair by construction.
        let mut out = Mapping::builder(self.arch.num_levels())
            .build_for_bounds(self.shape.bounds())
            .expect("default builder output is always valid");
        self.sampler().sample_into(&mut out, rng);
        out
    }

    /// Creates a reusable sampling scratch bound to this mapspace. One
    /// [`Sampler`] plus one reused [`Mapping`] makes the sampling half of
    /// a search loop allocation-free apart from per-dimension factor
    /// draws.
    pub fn sampler(&self) -> Sampler<'_> {
        Sampler {
            space: self,
            builder: Mapping::builder(self.arch.num_levels()),
            states: Vec::with_capacity(self.arch.num_levels()),
        }
    }

    /// PFM: assign the prime factors of `bound` to slots uniformly.
    fn sample_pfm<R: Rng + ?Sized>(&self, bound: u64, rules: &[SlotRule], rng: &mut R) -> Vec<u64> {
        let caps: Vec<Option<u64>> = rules.iter().map(|r| r.cap).collect();
        // lint: allow(panics) — assignment only fails when every slot is
        // capped below a prime factor; temporal slots are never capped.
        factor::sample_factor_assignment(bound, &caps, rng)
            .expect("temporal slots are uncapped, so assignment always succeeds")
    }

    /// Ruby / Ruby-T: walk slots innermost-first choosing log-uniform
    /// factors. `spatial_free`: spatial factors may be non-divisors
    /// (Ruby); otherwise they are drawn from the divisors of `bound`
    /// (Ruby-T). `temporal_free` is always true here.
    fn sample_free<R: Rng + ?Sized>(
        &self,
        bound: u64,
        rules: &[SlotRule],
        rng: &mut R,
        spatial_free: bool,
        _temporal_free: bool,
    ) -> Vec<u64> {
        let divs = if spatial_free {
            Vec::new()
        } else {
            factor::divisors(bound)
        };
        let mut cum = 1u64;
        let mut out = Vec::with_capacity(rules.len());
        for rule in rules {
            let needed = bound.div_ceil(cum);
            let f = if rule.spatial {
                let cap = rule.cap.unwrap_or(u64::MAX).min(needed);
                if spatial_free {
                    sample_spatial_imperfect(cap, rng)
                } else {
                    // Divisor of the bound, within the cap.
                    let feasible: Vec<u64> = divs.iter().copied().filter(|&v| v <= cap).collect();
                    feasible[rng.gen_range(0..feasible.len())]
                }
            } else {
                factor::sample_log_uniform(needed, rng)
            };
            cum = cum.saturating_mul(f).min(bound);
            out.push(f);
        }
        out
    }

    /// Ruby-S: free spatial factors, then a perfect factorization of the
    /// residual temporal extent `ceil(bound / Πs)`.
    fn sample_ruby_s<R: Rng + ?Sized>(
        &self,
        bound: u64,
        rules: &[SlotRule],
        rng: &mut R,
    ) -> Vec<u64> {
        let mut spatial_product = 1u64;
        let mut factors = vec![1u64; rules.len()];
        for (i, rule) in rules.iter().enumerate() {
            if !rule.spatial {
                continue;
            }
            let needed = bound.div_ceil(spatial_product);
            let cap = rule.cap.unwrap_or(u64::MAX).min(needed);
            let f = sample_spatial_imperfect(cap, rng);
            factors[i] = f;
            spatial_product = spatial_product.saturating_mul(f);
        }
        let residual = bound.div_ceil(spatial_product);
        let temporal_caps: Vec<Option<u64>> =
            rules.iter().filter(|r| !r.spatial).map(|_| None).collect();
        // lint: allow(panics) — all-`None` caps cannot reject, and the
        // assignment yields exactly one factor per temporal slot.
        let temporal = factor::sample_factor_assignment(residual, &temporal_caps, rng)
            .expect("uncapped assignment always succeeds");
        let mut it = temporal.into_iter();
        for (i, rule) in rules.iter().enumerate() {
            if !rule.spatial {
                // lint: allow(panics) — same-length iterators, as above.
                factors[i] = it.next().expect("one factor per temporal slot");
            }
        }
        factors
    }

    /// The number of distinct tilings per dimension, multiplied across
    /// dimensions (permutations excluded; spatial caps applied per-dim,
    /// so joint fanout sharing across dims is not deducted). This is the
    /// Table I mapspace-size metric.
    pub fn count_tilings(&self) -> u128 {
        let remaining: Vec<AxisState> = self
            .arch
            .levels()
            .iter()
            .map(|l| AxisState {
                x: l.fanout().x(),
                y: l.fanout().y(),
                x_owner: None,
                y_owner: None,
            })
            .collect();
        Dim::ALL
            .iter()
            .map(|&d| {
                let bound = self.shape.bound(d);
                let rules = self.slot_rules(d, &remaining);
                self.count_dim(bound, &rules)
            })
            .fold(1u128, u128::saturating_mul)
    }

    fn count_dim(&self, bound: u64, rules: &[SlotRule]) -> u128 {
        let caps: Vec<Option<u64>> = rules.iter().map(|r| r.cap).collect();
        match self.kind {
            MapspaceKind::Pfm => factor::count_capped_factorizations(bound, &caps),
            MapspaceKind::Ruby => factor::count_free_chains(bound, &caps),
            MapspaceKind::RubyS => {
                let spatial_caps: Vec<u64> = rules
                    .iter()
                    .filter(|r| r.spatial)
                    .map(|r| r.cap.unwrap_or(1).min(bound))
                    .collect();
                let num_temporal = rules.iter().filter(|r| !r.spatial).count();
                count_ruby_s(bound, &spatial_caps, num_temporal, 1)
            }
            MapspaceKind::RubyT => {
                let temporal_nones: Vec<Option<u64>> =
                    rules.iter().filter(|r| !r.spatial).map(|_| None).collect();
                let spatial_caps: Vec<u64> = rules
                    .iter()
                    .filter(|r| r.spatial)
                    .map(|r| r.cap.unwrap_or(1).min(bound))
                    .collect();
                count_ruby_t(bound, &spatial_caps, &temporal_nones, 1)
            }
        }
    }

    /// Exhaustively enumerates the perfect-factorization tilings (default
    /// permutations), up to `limit` mappings. Intended for toy problems;
    /// the count grows combinatorially with the number of prime factors.
    pub fn enumerate_perfect(&self, limit: usize) -> Vec<Mapping> {
        let remaining: Vec<AxisState> = self
            .arch
            .levels()
            .iter()
            .map(|l| AxisState {
                x: l.fanout().x(),
                y: l.fanout().y(),
                x_owner: None,
                y_owner: None,
            })
            .collect();
        let per_dim: Vec<Vec<Vec<u64>>> = Dim::ALL
            .iter()
            .map(|&d| {
                let rules = self.slot_rules(d, &remaining);
                let caps: Vec<Option<u64>> = rules.iter().map(|r| r.cap).collect();
                enumerate_capped_factorizations(self.shape.bound(d), &caps)
            })
            .collect();
        let mut out = Vec::new();
        let mut indices = [0usize; 7];
        'outer: loop {
            let mut builder = Mapping::builder(self.arch.num_levels());
            for (di, &d) in Dim::ALL.iter().enumerate() {
                let rules = self.slot_rules(d, &remaining);
                for (si, rule) in rules.iter().enumerate() {
                    let f = per_dim[di][indices[di]][si];
                    if f > 1 {
                        builder.set_tile(d, rule.level, rule.kind, f);
                    }
                }
            }
            out.push(
                // lint: allow(panics) — enumerated factors come from the
                // bound's own divisors, which always build a valid chain.
                builder
                    .build_for_bounds(self.shape.bounds())
                    .expect("enumerated factors build valid chains"),
            );
            if out.len() >= limit {
                break;
            }
            // Odometer increment.
            for di in 0..7 {
                indices[di] += 1;
                if indices[di] < per_dim[di].len() {
                    continue 'outer;
                }
                indices[di] = 0;
            }
            break;
        }
        out
    }
}

/// Reusable sampling scratch for one [`Mapspace`] — the builder and
/// per-level fanout states survive across samples, so a hot search loop
/// avoids rebuilding them for every draw.
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use ruby_arch::presets;
/// use ruby_mapspace::{Mapspace, MapspaceKind};
/// use ruby_workload::ProblemShape;
///
/// let space = Mapspace::new(
///     presets::toy_linear(4, 1024),
///     ProblemShape::rank1("d", 100),
///     MapspaceKind::RubyS,
/// );
/// let mut rng = SmallRng::seed_from_u64(7);
/// let mut sampler = space.sampler();
/// let mut mapping = space.sample(&mut rng);
/// for _ in 0..10 {
///     sampler.sample_into(&mut mapping, &mut rng);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sampler<'a> {
    space: &'a Mapspace,
    builder: MappingBuilder,
    states: Vec<AxisState>,
}

impl Sampler<'_> {
    /// The mapspace this sampler draws from.
    pub fn space(&self) -> &Mapspace {
        self.space
    }

    /// Draws one mapping into `out`, reusing both `out`'s and the
    /// sampler's allocations. Produces the same mapping (and consumes the
    /// same RNG stream) as [`Mapspace::sample`].
    pub fn sample_into<R: Rng + ?Sized>(&mut self, out: &mut Mapping, rng: &mut R) {
        SAMPLES.inc();
        let space = self.space;
        let num_levels = space.arch.num_levels();
        self.builder.reset();
        for level in 0..num_levels {
            let mut perm = Dim::ALL;
            perm.shuffle(rng);
            self.builder.set_permutation(level, perm);
        }
        // Remaining spatial capacity per level, shared across dims.
        self.states.clear();
        self.states
            .extend(space.arch.levels().iter().map(|l| AxisState {
                x: l.fanout().x(),
                y: l.fanout().y(),
                x_owner: None,
                y_owner: None,
            }));
        let mut dims = Dim::ALL;
        dims.shuffle(rng);
        for d in dims {
            let bound = space.shape.bound(d);
            let rules = space.slot_rules(d, &self.states);
            let factors = match space.kind {
                MapspaceKind::Pfm => space.sample_pfm(bound, &rules, rng),
                MapspaceKind::Ruby => space.sample_free(bound, &rules, rng, true, true),
                MapspaceKind::RubyS => space.sample_ruby_s(bound, &rules, rng),
                MapspaceKind::RubyT => space.sample_free(bound, &rules, rng, false, true),
            };
            for (rule, &f) in rules.iter().zip(&factors) {
                if f > 1 {
                    self.builder.set_tile(d, rule.level, rule.kind, f);
                }
                if rule.spatial && f > 1 {
                    let state = &mut self.states[rule.level];
                    match rule.kind {
                        SlotKind::SpatialX => {
                            state.x /= f;
                            state.x_owner = Some(d);
                        }
                        SlotKind::SpatialY => {
                            state.y /= f;
                            state.y_owner = Some(d);
                        }
                        // lint: allow(panics) — the enclosing loop
                        // iterates spatial slots only.
                        SlotKind::Temporal => unreachable!(),
                    }
                }
            }
        }
        // lint: allow(panics) — sampled factors multiply back to the
        // dimension bound by construction, so the chain always builds.
        self.builder
            .build_into_for_bounds(space.shape.bounds(), out)
            .expect("sampled factors always build a valid chain");
    }
}

/// Samples an imperfect spatial factor in `[1, cap]`: half the time the
/// full fanout (the utilization-maximizing choice that motivates Ruby-S),
/// otherwise log-uniform across scales.
fn sample_spatial_imperfect<R: Rng + ?Sized>(cap: u64, rng: &mut R) -> u64 {
    if cap <= 1 {
        return 1;
    }
    if rng.gen_bool(0.5) {
        cap
    } else {
        factor::sample_log_uniform(cap, rng)
    }
}

/// Counts Ruby-S tilings: Σ over spatial factor combos of the perfect
/// factorizations of the residual extent.
fn count_ruby_s(bound: u64, spatial_caps: &[u64], num_temporal: usize, product: u64) -> u128 {
    match spatial_caps.split_first() {
        None => {
            let residual = bound.div_ceil(product);
            factor::count_ordered_factorizations(residual, num_temporal)
        }
        Some((&cap, rest)) => {
            let mut total = 0u128;
            for f in 1..=cap.min(bound.div_ceil(product)) {
                total = total.saturating_add(count_ruby_s(
                    bound,
                    rest,
                    num_temporal,
                    product.saturating_mul(f),
                ));
            }
            total
        }
    }
}

/// Counts Ruby-T tilings: Σ over spatial divisor combos (whose product
/// divides the bound) of the free temporal chains over the quotient.
fn count_ruby_t(
    bound: u64,
    spatial_caps: &[u64],
    temporal_nones: &[Option<u64>],
    product: u64,
) -> u128 {
    match spatial_caps.split_first() {
        None => factor::count_free_chains(bound / product, temporal_nones),
        Some((&cap, rest)) => {
            let quotient = bound / product;
            factor::divisors(quotient)
                .into_iter()
                .filter(|&f| f <= cap)
                .map(|f| count_ruby_t(bound, rest, temporal_nones, product * f))
                .fold(0u128, u128::saturating_add)
        }
    }
}

/// Enumerates every assignment of the factors of `n` to capped slots.
fn enumerate_capped_factorizations(n: u64, caps: &[Option<u64>]) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    let mut current = vec![1u64; caps.len()];
    fn recurse(
        remaining: u64,
        slot: usize,
        caps: &[Option<u64>],
        current: &mut Vec<u64>,
        out: &mut Vec<Vec<u64>>,
    ) {
        if slot == caps.len() {
            if remaining == 1 {
                out.push(current.clone());
            }
            return;
        }
        for f in factor::divisors(remaining) {
            if let Some(c) = caps[slot] {
                if f > c {
                    continue;
                }
            }
            current[slot] = f;
            recurse(remaining / f, slot + 1, caps, current, out);
        }
        current[slot] = 1;
    }
    recurse(n, 0, caps, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use ruby_arch::presets;

    fn toy_space(kind: MapspaceKind, pes: u64, d: u64) -> Mapspace {
        Mapspace::new(
            presets::toy_linear(pes, 1024),
            ProblemShape::rank1("d", d),
            kind,
        )
    }

    #[test]
    fn pfm_samples_are_perfect() {
        let space = toy_space(MapspaceKind::Pfm, 9, 100);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let m = space.sample(&mut rng);
            assert!(!m.is_imperfect(), "PFM must never produce remainders");
            // Spatial extent within the 9-PE fanout.
            let (x, y) = m.spatial_extent(0);
            assert!(x <= 9 && y <= 1, "spatial {x}x{y}");
        }
    }

    #[test]
    fn ruby_s_spatial_factors_obey_fanout() {
        let space = toy_space(MapspaceKind::RubyS, 9, 113);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut saw_imperfect = false;
        for _ in 0..200 {
            let m = space.sample(&mut rng);
            let (x, _) = m.spatial_extent(0);
            assert!(x <= 9);
            saw_imperfect |= m.is_imperfect();
        }
        assert!(saw_imperfect, "Ruby-S on a prime bound must use remainders");
    }

    #[test]
    fn ruby_t_spatial_factors_divide_bound() {
        let space = toy_space(MapspaceKind::RubyT, 9, 100);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let m = space.sample(&mut rng);
            let sx = m.layout().spatial_x_slot(0);
            let count = m.loop_count(ruby_workload::Dim::M, sx);
            assert!(count <= 9);
            assert_eq!(
                100 % count.max(1),
                0,
                "spatial factor {count} must divide 100"
            );
        }
    }

    #[test]
    fn sampled_mappings_cover_bound() {
        let mut rng = SmallRng::seed_from_u64(4);
        for kind in MapspaceKind::ALL {
            let space = toy_space(kind, 9, 100);
            for _ in 0..50 {
                let m = space.sample(&mut rng);
                let chain = m.tile_chain(ruby_workload::Dim::M);
                assert_eq!(*chain.last().unwrap(), 100, "{kind}");
                assert_eq!(chain[0], 1);
            }
        }
    }

    #[test]
    fn counts_reproduce_table1_ordering() {
        // Table I: Ruby and Ruby-T explode, Ruby-S stays moderate, PFM is
        // smallest (9-PE fanout, 2-level toy).
        for d in [100u64, 1000, 4096] {
            let pfm = toy_space(MapspaceKind::Pfm, 9, d).count_tilings();
            let ruby = toy_space(MapspaceKind::Ruby, 9, d).count_tilings();
            let ruby_s = toy_space(MapspaceKind::RubyS, 9, d).count_tilings();
            let ruby_t = toy_space(MapspaceKind::RubyT, 9, d).count_tilings();
            assert!(pfm < ruby_s, "d={d}: pfm {pfm} < ruby_s {ruby_s}");
            assert!(ruby_s < ruby_t, "d={d}: ruby_s {ruby_s} < ruby_t {ruby_t}");
            assert!(ruby_t <= ruby, "d={d}: ruby_t {ruby_t} <= ruby {ruby}");
        }
    }

    #[test]
    fn pfm_count_matches_enumeration() {
        let space = toy_space(MapspaceKind::Pfm, 9, 100);
        let count = space.count_tilings();
        let enumerated = space.enumerate_perfect(usize::MAX);
        assert_eq!(enumerated.len() as u128, count);
    }

    #[test]
    fn constraints_zero_out_disallowed_spatial_dims() {
        let arch = presets::toy_linear(9, 1024);
        let shape = ProblemShape::gemm("g", 12, 1, 12);
        let constraints = Constraints::unconstrained(2).with_spatial_x(0, &[ruby_workload::Dim::C]);
        let space = Mapspace::new(arch, shape, MapspaceKind::Ruby).with_constraints(constraints);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            let m = space.sample(&mut rng);
            let sx = m.layout().spatial_x_slot(0);
            assert_eq!(
                m.loop_count(ruby_workload::Dim::M, sx),
                1,
                "M is not allowed on X"
            );
        }
    }

    #[test]
    fn shared_fanout_never_oversubscribed() {
        // Two dims competing for one 12-wide axis must share it.
        let arch = presets::toy_linear(12, 65536);
        let shape = ProblemShape::gemm("g", 8, 1, 8);
        for kind in MapspaceKind::ALL {
            let space = Mapspace::new(arch.clone(), shape.clone(), kind);
            let mut rng = SmallRng::seed_from_u64(6);
            for _ in 0..200 {
                let m = space.sample(&mut rng);
                let (x, _) = m.spatial_extent(0);
                assert!(x <= 12, "{kind}: spatial extent {x} exceeds fanout");
            }
        }
    }
}
