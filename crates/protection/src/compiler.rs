//! The demand compiler: analytic quiet-gap sampling for Markov plants.
//!
//! PR 1 gave memoryless (rate) plants a geometric demand-gap fast path;
//! state-dependent plants still paid one RNG draw per tick. This module
//! extends the "exploit the stochastic structure instead of simulating
//! it" idea to any plant that can state its exact one-step law
//! ([`crate::plant::Plant::transition_row`]):
//!
//! 1. **Compile.** For every plant state `s`, split the transition row
//!    into the *demand* mass (successors inside the trip set), the quiet
//!    *self-loop* mass `R(s, s)`, and the quiet *move* mass. Build one
//!    Walker–Vose alias table per state over each of the two non-self
//!    successor classes.
//! 2. **Sample.** The number of consecutive ticks the chain holds in `s`
//!    before an exit (demand or move) is geometric with parameter
//!    `p_exit(s) = 1 − R(s, s)` (self-loops inside the trip set count as
//!    demands, not holds), so the whole dwell is one `ln` draw. The exit
//!    tick is a demand with probability `p_demand(s) / p_exit(s)`, and
//!    the successor is one alias lookup.
//!
//! The compiled process is **exactly** the chain the tick loop simulates
//! — the decomposition is algebra, not approximation — so compiled and
//! stepwise runs are statistically indistinguishable (the repository's
//! chi-squared equivalence suite holds this to account). The win is the
//! work per *event* instead of per tick: a plant that dwells `1/p`
//! ticks per operating point does `~p · steps` iterations instead of
//! `steps`.
//!
//! Two backends share the per-state algebra:
//!
//! * **Eager** (spaces up to [`MAX_COMPILED_CELLS`]): every state is
//!   compiled up front into flat arrays — the densest, fastest layout
//!   when the whole space fits.
//! * **Sparse** (spaces up to [`MAX_SPARSE_CELLS`]): states are compiled
//!   **on first visit** into a read-mostly page table indexed by cell.
//!   A state that is already compiled is found with two atomic loads —
//!   no lock and no shared write — so shards on many threads share one
//!   table without contending. A first visit builds its row with the
//!   calling thread's own [`RowScratch`](crate::plant::RowScratch) and
//!   alias work areas, so a lazy build allocates only the row it keeps
//!   and never serialises on a global lock. A slow-mixing chain visits a
//!   vanishing fraction of a 16M-cell space, so huge plants ride the
//!   analytic fast path instead of falling back to the tick loop.
//!   [`CompiledPlant::occupancy`] reports the visited fraction.
//!
//! Both backends build their tables with the same functions from the
//! same exact rows and consume identically many RNG draws, so for any
//! plant the eager compiler accepts, sparse and eager runs are
//! **bit-identical** (held to account by this module's tests and
//! proptests).
//!
//! Plants whose law cannot be enumerated (the rate plant, or spaces
//! beyond [`MAX_SPARSE_CELLS`]) are simply not compilable —
//! [`CompiledPlant::compile`] returns `None` and the simulation driver
//! degrades gracefully to the tick loop.

use crate::error::ProtectionError;
use crate::plant::{Plant, RowScratch};
use divrel_demand::space::{Demand, GridSpace2D};
use rand::Rng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Largest demand-space cell count the compiler will enumerate
/// **eagerly**. Each cell stores a handful of floats plus its alias
/// rows, so this bounds up-front compile time and memory; larger plants
/// switch to the sparse on-demand backend instead of falling back to
/// tick-by-tick simulation.
pub const MAX_COMPILED_CELLS: usize = 1 << 22;

/// Largest demand-space cell count the **sparse** backend accepts. The
/// per-state tables are built lazily, so this bounds only what is
/// allocated up front — the trip-set bitmap (one bit per cell) and the
/// page directory (16 bytes per page of 64 cells) — and the
/// cell-index width, not compile time; beyond it plants are not
/// compilable at all.
pub const MAX_SPARSE_CELLS: usize = 1 << 28;

/// Cells per page of the sparse backend's state table. A page is
/// allocated whole on the first visit to any of its cells, so pages
/// stay small: a walk's visited set is a blob a few hundred cells wide
/// on a row thousands of cells long, and every touched page carries its
/// unvisited slots too.
const PAGE_CELLS: usize = 64;

/// What the compiled sampler produced for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompiledEvent {
    /// A demand occurred after `quiet_gap` quiet ticks (the demand tick
    /// itself is not counted in the gap). Total ticks consumed:
    /// `quiet_gap + 1`.
    Demand {
        /// Quiet ticks that preceded the demand.
        quiet_gap: u64,
        /// The demand raised (also the plant's new state).
        demand: Demand,
    },
    /// The tick budget ran out with no demand; all `ticks` were quiet.
    Quiet {
        /// Quiet ticks consumed (the whole requested budget).
        ticks: u64,
    },
}

/// A plant compiled to per-state analytic demand-gap samplers.
///
/// ```
/// use divrel_demand::region::Region;
/// use divrel_demand::space::GridSpace2D;
/// use divrel_protection::compiler::{CompiledEvent, CompiledPlant};
/// use divrel_protection::plant::Plant;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = GridSpace2D::new(40, 40)?;
/// let plant = Plant::markov_walk(space, Region::rect(0, 0, 2, 2), 2, 0.05)?;
/// let compiled = CompiledPlant::compile(&plant)?.expect("markov plants compile");
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut state = compiled.initial_state();
/// match compiled.next_demand(&mut state, 1_000_000, &mut rng) {
///     CompiledEvent::Demand { demand, .. } => assert!(demand.var1 <= 2),
///     CompiledEvent::Quiet { ticks } => assert_eq!(ticks, 1_000_000),
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledPlant {
    space: GridSpace2D,
    start: u32,
    backend: Backend,
}

#[derive(Debug, Clone)]
enum Backend {
    Eager(EagerTables),
    Sparse(SparseTables),
}

/// The dwell/branch parameters of one compiled state.
#[derive(Debug, Clone, Copy)]
struct StateParams {
    /// `1 − R(s, s)` with self-loops inside the trip set counted as
    /// exits (they are demands).
    exit_prob: f64,
    /// `1 / ln(R(s, s))` — the geometric dwell sampler's constant; `0.0`
    /// encodes "exit every tick" (no quiet self-loop mass).
    inv_log_hold: f64,
    /// `p_demand(s) / p_exit(s)`; meaningless (0) where `p_exit = 0`.
    demand_given_exit: f64,
}

/// The eager backend: every state compiled up front into flat arrays.
#[derive(Debug, Clone)]
struct EagerTables {
    exit_prob: Vec<f64>,
    inv_log_hold: Vec<f64>,
    demand_given_exit: Vec<f64>,
    quiet_moves: AliasForest,
    demands: AliasForest,
}

/// The sparse backend: states compiled on first visit into a two-level
/// page table indexed by cell. The directory is allocated up front; a
/// page of [`PAGE_CELLS`] slots on the first visit to any of its cells;
/// a slot's row on the first visit to that cell. Compiled rows never
/// move or change, so lookups are lock-free reads. Concurrent first
/// visits of one state build it once (the other callers wait on that
/// slot alone), and rows are a pure function of the plant, so the
/// tables do not depend on which thread got there first.
struct SparseTables {
    plant: Plant,
    /// Bit per cell: is this cell a demand when entered? Same bitmap
    /// the eager compiler builds, so trip classification is identical.
    trip_bits: Vec<u64>,
    pages: Box<[OnceLock<Box<Page>>]>,
    /// Rows built so far: incremented once per slot initialisation.
    compiled: AtomicUsize,
}

type Page = [OnceLock<StateRow>; PAGE_CELLS];

/// One lazily-compiled state: parameters plus its two alias rows in a
/// single allocation — the demand row is `entries[..demands]`, the
/// quiet-move row `entries[demands..]`.
#[derive(Debug, Clone)]
struct StateRow {
    params: StateParams,
    demands: u32,
    entries: Box<[AliasEntry]>,
}

impl StateRow {
    fn demand_row(&self) -> &[AliasEntry] {
        &self.entries[..self.demands as usize]
    }

    fn quiet_row(&self) -> &[AliasEntry] {
        &self.entries[self.demands as usize..]
    }
}

thread_local! {
    /// Each thread's work areas for sparse first-visit builds.
    static SPARSE_SCRATCH: RefCell<CompileScratch> = RefCell::new(CompileScratch::default());
}

impl std::fmt::Debug for SparseTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseTables")
            .field("compiled_states", &self.compiled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Clone for SparseTables {
    fn clone(&self) -> Self {
        let pages = self.pages.clone();
        // Count what was copied rather than reading the counter, so a
        // clone taken while other threads build stays exact.
        let compiled = pages
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|page| page.iter())
            .filter(|slot| slot.get().is_some())
            .count();
        SparseTables {
            plant: self.plant.clone(),
            trip_bits: self.trip_bits.clone(),
            pages,
            compiled: AtomicUsize::new(compiled),
        }
    }
}

impl CompiledPlant {
    /// Compiles `plant`, or returns `None` when the plant does not expose
    /// an enumerable transition law (rate plants) or its space exceeds
    /// [`MAX_SPARSE_CELLS`].
    ///
    /// Spaces up to [`MAX_COMPILED_CELLS`] compile eagerly
    /// (`O(cells × successors)` once, the densest hot-path layout);
    /// larger spaces compile **sparsely** — `O(1)` up front, each state
    /// built on first visit — so a 4096×4096 plant pays only for the
    /// states its chain actually reaches. One compiled plant can drive
    /// any number of runs (it is `Sync`, so sharded campaigns share a
    /// single instance across threads), and for any plant both backends
    /// accept, their event streams are bit-identical.
    ///
    /// # Errors
    ///
    /// [`ProtectionError::InvalidConfig`] if a transition row is not a
    /// probability distribution (a plant-implementation bug, not a
    /// caller error). The sparse backend checks the initial state here
    /// and asserts the rest at first visit.
    pub fn compile(plant: &Plant) -> Result<Option<Self>, ProtectionError> {
        let cells = plant.space().cell_count();
        if cells <= MAX_COMPILED_CELLS {
            Self::compile_eager(plant)
        } else {
            Self::compile_sparse(plant)
        }
    }

    /// Compiles `plant` eagerly (every state up front), or `None` for
    /// rate plants and spaces beyond [`MAX_COMPILED_CELLS`]. Exposed so
    /// tests and benchmarks can pin the backend; [`CompiledPlant::compile`]
    /// picks it automatically for spaces that fit.
    ///
    /// # Errors
    ///
    /// As [`CompiledPlant::compile`].
    pub fn compile_eager(plant: &Plant) -> Result<Option<Self>, ProtectionError> {
        let space = *plant.space();
        let cells = space.cell_count();
        if cells > MAX_COMPILED_CELLS || plant.transition_row(plant.initial_state()).is_none() {
            return Ok(None);
        }
        let trip_bits = trip_bitmap(plant, &space);
        let mut exit_prob = Vec::with_capacity(cells);
        let mut inv_log_hold = Vec::with_capacity(cells);
        let mut demand_given_exit = Vec::with_capacity(cells);
        let mut quiet_moves = AliasForest::new(cells);
        let mut demands = AliasForest::new(cells);
        let mut scratch = CompileScratch::default();
        for cell in 0..cells {
            let params = compile_state(plant, &space, &trip_bits, cell, &mut scratch)?;
            exit_prob.push(params.exit_prob);
            inv_log_hold.push(params.inv_log_hold);
            demand_given_exit.push(params.demand_given_exit);
            quiet_moves.push_state(&scratch.quiet_row, &mut scratch.work);
            demands.push_state(&scratch.demand_row, &mut scratch.work);
        }
        let start = space
            .index_of(plant.initial_state())
            .expect("initial state in space") as u32;
        Ok(Some(CompiledPlant {
            space,
            start,
            backend: Backend::Eager(EagerTables {
                exit_prob,
                inv_log_hold,
                demand_given_exit,
                quiet_moves,
                demands,
            }),
        }))
    }

    /// Compiles `plant` with the sparse on-demand backend regardless of
    /// its size (up to [`MAX_SPARSE_CELLS`]), or `None` for rate plants
    /// and spaces beyond that ceiling. Exposed so the bit-identity
    /// suite can force the lazy backend onto spaces the eager compiler
    /// also accepts.
    ///
    /// # Errors
    ///
    /// [`ProtectionError::InvalidConfig`] if the initial state's
    /// transition row is not a probability distribution.
    pub fn compile_sparse(plant: &Plant) -> Result<Option<Self>, ProtectionError> {
        let space = *plant.space();
        let cells = space.cell_count();
        if cells > MAX_SPARSE_CELLS || plant.transition_row(plant.initial_state()).is_none() {
            return Ok(None);
        }
        let trip_bits = trip_bitmap(plant, &space);
        let start = space
            .index_of(plant.initial_state())
            .expect("initial state in space") as u32;
        // Compile the initial state now: its row mass check surfaces a
        // plant-implementation bug as a typed error here rather than a
        // panic mid-run, and every run starts there anyway.
        let first = SPARSE_SCRATCH.with(|scratch| {
            build_state_row(
                plant,
                &space,
                &trip_bits,
                start as usize,
                &mut scratch.borrow_mut(),
            )
        })?;
        let tables = SparseTables {
            plant: plant.clone(),
            trip_bits,
            pages: (0..cells.div_ceil(PAGE_CELLS))
                .map(|_| OnceLock::new())
                .collect(),
            compiled: AtomicUsize::new(1),
        };
        tables
            .slot(start as usize)
            .set(first)
            .expect("a fresh table has no rows");
        Ok(Some(CompiledPlant {
            space,
            start,
            backend: Backend::Sparse(tables),
        }))
    }

    /// Whether compiling `plant` is likely to beat the tick loop for a
    /// one-shot run: true when the plant is *sticky* (the quiet
    /// self-loop mass at its initial state is at least 1/2, i.e. the
    /// chain dwells ≥ 2 ticks per state on average). Fast-mixing plants
    /// (e.g. plain trajectories, whose hold mass is `1/(2·step+1)²`)
    /// spend more on per-event sampling plus compilation than the tick
    /// loop costs, so the driver leaves them on the exact stepwise path.
    ///
    /// This is a cheap probe — one transition row at the initial state —
    /// not a compilation. Callers that reuse one [`CompiledPlant`]
    /// across many runs (sharded campaigns, repeated experiments) can
    /// ignore it and compile unconditionally: the compiled sampler is
    /// never *wrong*, only unprofitable for thin workloads.
    pub fn is_profitable(plant: &Plant) -> bool {
        let state = plant.initial_state();
        match plant.transition_row(state) {
            None => false,
            Some(row) => {
                let hold: f64 = row
                    .iter()
                    .filter(|(d, _)| *d == state)
                    .map(|&(_, p)| p)
                    .sum();
                // Holding inside the trip set is a demand, not a dwell.
                let quiet_hold = match plant.trip_set() {
                    Some(trip) if trip.contains(state) => 0.0,
                    _ => hold,
                };
                quiet_hold >= 0.5
            }
        }
    }

    /// The demand space of the compiled plant.
    pub fn space(&self) -> &GridSpace2D {
        &self.space
    }

    /// Number of compiled states (demand-space cells).
    pub fn states(&self) -> usize {
        self.space.cell_count()
    }

    /// Number of states whose tables have actually been built: every
    /// state for the eager backend, the visited set for the sparse one.
    pub fn compiled_states(&self) -> usize {
        match &self.backend {
            Backend::Eager(t) => t.exit_prob.len(),
            Backend::Sparse(t) => t.compiled.load(Ordering::Relaxed),
        }
    }

    /// Fraction of the state space with built tables
    /// (`compiled_states / states`): 1.0 for the eager backend, the
    /// visited fraction for the sparse one — the occupancy figure
    /// perfbench's traced `campaign` workload reports as
    /// `protection.occupancy`.
    pub fn occupancy(&self) -> f64 {
        self.compiled_states() as f64 / self.states() as f64
    }

    /// Whether this instance uses the sparse on-demand backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self.backend, Backend::Sparse(_))
    }

    /// The plant's initial state as a cell index.
    pub fn initial_state(&self) -> u32 {
        self.start
    }

    /// Per-state demand probability `P(next tick is a demand | state)` —
    /// exposed for diagnostics and tests. On the sparse backend this
    /// compiles `cell` if it has not been visited yet.
    pub fn demand_prob(&self, cell: usize) -> f64 {
        match &self.backend {
            Backend::Eager(t) => t.exit_prob[cell] * t.demand_given_exit[cell],
            Backend::Sparse(t) => {
                let row = t.state_row(&self.space, cell as u32);
                row.params.exit_prob * row.params.demand_given_exit
            }
        }
    }

    /// Advances the chain until the next demand or until `budget` ticks
    /// are consumed, whichever comes first, updating `state` in place.
    ///
    /// Equivalent in distribution to calling [`Plant::step`] `budget`
    /// times and stopping at the first demand — but the cost is one
    /// geometric draw plus one **fused** exit draw per *state change*,
    /// not per tick. The exit tick used to spend up to three uniforms
    /// (demand-vs-move coin, alias bucket, alias coin); one uniform now
    /// covers all three where the chain's branch masses allow it (see
    /// [`branch_uniform`]), halving the RNG work per state change. Both
    /// backends consume the stream identically, so swapping eager for
    /// sparse never perturbs an event sequence.
    pub fn next_demand<R: Rng + ?Sized>(
        &self,
        state: &mut u32,
        budget: u64,
        rng: &mut R,
    ) -> CompiledEvent {
        match &self.backend {
            Backend::Eager(t) => t.next_demand(&self.space, state, budget, rng),
            Backend::Sparse(t) => t.next_demand(&self.space, state, budget, rng),
        }
    }
}

impl EagerTables {
    fn next_demand<R: Rng + ?Sized>(
        &self,
        space: &GridSpace2D,
        state: &mut u32,
        budget: u64,
        rng: &mut R,
    ) -> CompiledEvent {
        let mut quiet = 0u64;
        while quiet < budget {
            let s = *state as usize;
            let p_exit = self.exit_prob[s];
            if p_exit <= 0.0 {
                // Absorbing quiet state: every remaining tick is quiet.
                return CompiledEvent::Quiet { ticks: budget };
            }
            let left = budget - quiet;
            let dwell = crate::simulation::geometric_gap(self.inv_log_hold[s], left, rng);
            if dwell >= left {
                return CompiledEvent::Quiet { ticks: budget };
            }
            quiet += dwell;
            // The exit tick itself: demand or quiet move, plus the
            // successor alias lookup, all from one uniform.
            let u: f64 = rng.gen();
            let dge = self.demand_given_exit[s];
            if u < dge {
                let v = branch_uniform(u, 0.0, dge, rng);
                let cell = self.demands.sample_with(s, v);
                *state = cell;
                return CompiledEvent::Demand {
                    quiet_gap: quiet,
                    demand: space
                        .demand_at(cell as usize)
                        .expect("compiled successor in range"),
                };
            }
            quiet += 1;
            *state = self
                .quiet_moves
                .sample_with(s, branch_uniform(u, dge, 1.0 - dge, rng));
        }
        CompiledEvent::Quiet { ticks: budget }
    }
}

impl SparseTables {
    /// The slot of `cell`, allocating its page on first touch.
    #[inline]
    fn slot(&self, cell: usize) -> &OnceLock<StateRow> {
        let page = self.pages[cell / PAGE_CELLS]
            .get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        &page[cell % PAGE_CELLS]
    }

    /// The compiled tables of `cell`, building them on first visit with
    /// this thread's scratch. A compiled state costs two atomic loads.
    #[inline]
    fn state_row(&self, space: &GridSpace2D, cell: u32) -> &StateRow {
        self.slot(cell as usize).get_or_init(|| {
            let row = SPARSE_SCRATCH
                .with(|scratch| {
                    build_state_row(
                        &self.plant,
                        space,
                        &self.trip_bits,
                        cell as usize,
                        &mut scratch.borrow_mut(),
                    )
                })
                .unwrap_or_else(|e| panic!("sparse lazy compile of cell {cell}: {e}"));
            self.compiled.fetch_add(1, Ordering::Relaxed);
            row
        })
    }

    /// Mirrors [`EagerTables::next_demand`] draw for draw: the lazy
    /// builds consume no RNG, so the two backends' event streams are
    /// bit-identical.
    fn next_demand<R: Rng + ?Sized>(
        &self,
        space: &GridSpace2D,
        state: &mut u32,
        budget: u64,
        rng: &mut R,
    ) -> CompiledEvent {
        let mut quiet = 0u64;
        let mut row = self.state_row(space, *state);
        while quiet < budget {
            if row.params.exit_prob <= 0.0 {
                return CompiledEvent::Quiet { ticks: budget };
            }
            let left = budget - quiet;
            let dwell = crate::simulation::geometric_gap(row.params.inv_log_hold, left, rng);
            if dwell >= left {
                return CompiledEvent::Quiet { ticks: budget };
            }
            quiet += dwell;
            let u: f64 = rng.gen();
            let dge = row.params.demand_given_exit;
            if u < dge {
                let v = branch_uniform(u, 0.0, dge, rng);
                let cell = alias_pick(row.demand_row(), v);
                *state = cell;
                return CompiledEvent::Demand {
                    quiet_gap: quiet,
                    demand: space
                        .demand_at(cell as usize)
                        .expect("compiled successor in range"),
                };
            }
            quiet += 1;
            let v = branch_uniform(u, dge, 1.0 - dge, rng);
            *state = alias_pick(row.quiet_row(), v);
            row = self.state_row(space, *state);
        }
        CompiledEvent::Quiet { ticks: budget }
    }
}

/// The trip-set bitmap both backends classify successors with (bit per
/// cell: is this cell a demand when entered?).
fn trip_bitmap(plant: &Plant, space: &GridSpace2D) -> Vec<u64> {
    let trip_set = plant
        .trip_set()
        .expect("plants with transition rows have trip sets");
    let mut trip_bits = vec![0u64; space.cell_count().div_ceil(64)];
    for cell in trip_set.cell_indices(space) {
        trip_bits[cell / 64] |= 1u64 << (cell % 64);
    }
    trip_bits
}

/// Scratch buffers reused by every per-state compilation: the plant's
/// row buffer, the demand/quiet split, the Walker–Vose work areas and
/// the sparse backend's row under construction. One instance serves a
/// whole eager sweep or one thread's sparse first-visit builds — no
/// per-state `Vec` churn.
#[derive(Debug, Default)]
struct CompileScratch {
    rows: RowScratch,
    quiet_row: Vec<(u32, f64)>,
    demand_row: Vec<(u32, f64)>,
    work: AliasWork,
    entries: Vec<AliasEntry>,
}

/// Splits one state's exact transition row into dwell parameters plus
/// the demand/quiet successor rows (left in `scratch.demand_row` /
/// `scratch.quiet_row`). This is the single per-state analysis both
/// backends run, so their tables are bit-identical by construction.
fn compile_state(
    plant: &Plant,
    space: &GridSpace2D,
    trip_bits: &[u64],
    cell: usize,
    scratch: &mut CompileScratch,
) -> Result<StateParams, ProtectionError> {
    let state = space.demand_at(cell).expect("cell index in range");
    assert!(
        plant.transition_row_into(state, &mut scratch.rows),
        "compilable plant has rows for every state"
    );
    let in_trip = |cell: usize| trip_bits[cell / 64] >> (cell % 64) & 1 == 1;
    let mut hold = 0.0;
    let mut p_demand = 0.0;
    let mut p_move = 0.0;
    let mut total = 0.0;
    scratch.quiet_row.clear();
    scratch.demand_row.clear();
    for &(succ, p) in scratch.rows.row() {
        let t = space.index_of(succ).map_err(|e| {
            ProtectionError::InvalidConfig(format!(
                "transition row of {state} leaves the space: {e}"
            ))
        })?;
        total += p;
        if in_trip(t) {
            p_demand += p;
            scratch.demand_row.push((t as u32, p));
        } else if t == cell {
            hold += p;
        } else {
            p_move += p;
            scratch.quiet_row.push((t as u32, p));
        }
    }
    if (total - 1.0).abs() > 1e-9 || total.is_nan() {
        return Err(ProtectionError::InvalidConfig(format!(
            "transition row of {state} has mass {total}, expected 1"
        )));
    }
    let p_exit = p_demand + p_move;
    Ok(StateParams {
        exit_prob: p_exit,
        inv_log_hold: if hold > 0.0 { hold.ln().recip() } else { 0.0 },
        demand_given_exit: if p_exit > 0.0 { p_demand / p_exit } else { 0.0 },
    })
}

/// Compiles one state end to end for the sparse backend: analysis plus
/// both alias rows, packed into one exact-length allocation.
fn build_state_row(
    plant: &Plant,
    space: &GridSpace2D,
    trip_bits: &[u64],
    cell: usize,
    scratch: &mut CompileScratch,
) -> Result<StateRow, ProtectionError> {
    let params = compile_state(plant, space, trip_bits, cell, scratch)?;
    scratch.entries.clear();
    push_alias_row(&scratch.demand_row, &mut scratch.work, &mut scratch.entries);
    let demands = scratch.entries.len() as u32;
    push_alias_row(&scratch.quiet_row, &mut scratch.work, &mut scratch.entries);
    Ok(StateRow {
        params,
        demands,
        entries: scratch.entries.as_slice().into(),
    })
}

/// Smallest branch mass whose conditional uniform is recycled. Below
/// this, `(u − lo) / width` would stretch a `2⁻⁵³`-granular uniform past
/// ~33 bits of resolution, so the sampler pays one fresh draw instead
/// of biasing the alias lookup. Branches this improbable are taken
/// ~once per million state changes, so the fallback costs nothing
/// measurable.
const FUSE_MIN_BRANCH: f64 = 1.0 / (1u64 << 20) as f64;

/// Largest `f64` below 1.0 — keeps a recycled uniform inside `[0, 1)`.
const ONE_BELOW: f64 = 1.0 - f64::EPSILON / 2.0;

/// The conditional uniform of a branch decision: given `u` uniform on
/// `[0, 1)` and the taken branch covering `[lo, lo + width)`,
/// `(u − lo) / width` is again uniform on `[0, 1)` — algebra, not
/// approximation — so the draw that picked the branch is **reused** for
/// the successor alias lookup. Branches too thin to rescale without
/// losing resolution ([`FUSE_MIN_BRANCH`]) draw fresh.
#[inline]
fn branch_uniform<R: Rng + ?Sized>(u: f64, lo: f64, width: f64, rng: &mut R) -> f64 {
    if width >= FUSE_MIN_BRANCH {
        ((u - lo) / width).clamp(0.0, ONE_BELOW)
    } else {
        rng.gen()
    }
}

/// One bucket of a Walker–Vose alias row: the successor it stands for,
/// the probability of keeping it, and the bucket (index *within the
/// row*) taken otherwise.
#[derive(Debug, Clone, Copy)]
struct AliasEntry {
    accept: f64,
    cell: u32,
    alias: u32,
}

/// Draws one successor from an alias row using a **single** uniform
/// `v ∈ [0, 1)`: `⌊v·n⌋` picks the bucket and the fractional part
/// `v·n − ⌊v·n⌋` — independent of the bucket and itself uniform — plays
/// the accept/alias coin. One draw where Walker–Vose is usually written
/// with two. Shared by both backends so the lookup arithmetic cannot
/// drift between them.
#[inline]
fn alias_pick(row: &[AliasEntry], v: f64) -> u32 {
    let n = row.len();
    debug_assert!(n > 0, "alias sample from empty successor set");
    debug_assert!((0.0..1.0).contains(&v), "alias uniform out of range: {v}");
    if n == 1 {
        return row[0].cell;
    }
    let scaled = v * n as f64;
    let i = (scaled as usize).min(n - 1);
    let coin = scaled - i as f64;
    let k = if coin < row[i].accept {
        i
    } else {
        row[i].alias as usize
    };
    row[k].cell
}

/// Per-state Walker–Vose alias rows over variable-length successor
/// lists, stored flat: state `s` owns entries `offsets[s]..offsets[s+1]`.
#[derive(Debug, Clone)]
struct AliasForest {
    offsets: Vec<u32>,
    entries: Vec<AliasEntry>,
}

impl AliasForest {
    /// An empty forest with room for `states` states.
    fn new(states: usize) -> Self {
        let mut offsets = Vec::with_capacity(states + 1);
        offsets.push(0);
        AliasForest {
            offsets,
            entries: Vec::new(),
        }
    }

    /// Appends the next state's successor distribution.
    fn push_state(&mut self, row: &[(u32, f64)], work: &mut AliasWork) {
        push_alias_row(row, work, &mut self.entries);
        self.offsets.push(self.entries.len() as u32);
    }

    /// Draws one successor cell for `state`. Must not be called for a
    /// state with an empty segment (the caller's branch probabilities
    /// guarantee this).
    #[inline]
    #[cfg(test)]
    fn sample<R: Rng + ?Sized>(&self, state: usize, rng: &mut R) -> u32 {
        self.sample_with(state, rng.gen())
    }

    /// Draws one successor cell for `state` from a single uniform
    /// `v ∈ [0, 1)` (see [`alias_pick`]).
    #[inline]
    fn sample_with(&self, state: usize, v: f64) -> u32 {
        let lo = self.offsets[state] as usize;
        let hi = self.offsets[state + 1] as usize;
        alias_pick(&self.entries[lo..hi], v)
    }
}

/// Walker–Vose work areas reused across [`push_alias_row`] calls.
#[derive(Debug, Default)]
struct AliasWork {
    scaled: Vec<f64>,
    small: Vec<usize>,
    large: Vec<usize>,
}

/// Appends one state's Walker–Vose alias row over `row` (`(cell,
/// weight)` pairs, weights positive but not necessarily normalised) to
/// `out`. Split entries into under/over-full relative to the uniform
/// share, pairing each under-full entry with an over-full alias. One
/// function serves both backends, so their tables are bit-identical for
/// identical rows.
fn push_alias_row(row: &[(u32, f64)], work: &mut AliasWork, out: &mut Vec<AliasEntry>) {
    let n = row.len();
    work.scaled.clear();
    work.small.clear();
    work.large.clear();
    if n == 0 {
        return;
    }
    let base = out.len();
    out.extend(row.iter().map(|&(cell, _)| AliasEntry {
        accept: 1.0,
        cell,
        alias: 0,
    }));
    let built = &mut out[base..];
    let total: f64 = row.iter().map(|&(_, w)| w).sum();
    work.scaled
        .extend(row.iter().map(|&(_, w)| w * n as f64 / total));
    work.small.extend((0..n).filter(|&i| work.scaled[i] < 1.0));
    work.large.extend((0..n).filter(|&i| work.scaled[i] >= 1.0));
    while let (Some(&s), Some(&l)) = (work.small.last(), work.large.last()) {
        work.small.pop();
        built[s].accept = work.scaled[s];
        built[s].alias = l as u32;
        work.scaled[l] -= 1.0 - work.scaled[s];
        if work.scaled[l] < 1.0 {
            work.large.pop();
            work.small.push(l);
        }
    }
    // Leftovers (numerical residue) accept unconditionally.
    for &i in work.small.iter().chain(work.large.iter()) {
        built[i].accept = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plant::PlantEvent;
    use divrel_demand::profile::Profile;
    use divrel_demand::region::Region;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn markov_plant() -> Plant {
        let space = GridSpace2D::new(30, 30).unwrap();
        Plant::markov_walk(space, Region::rect(0, 0, 3, 3), 2, 0.2).unwrap()
    }

    #[test]
    fn profitability_probe_prefers_sticky_plants() {
        let s = GridSpace2D::new(20, 20).unwrap();
        let trip = Region::rect(0, 0, 2, 2);
        // Fast-mixing trajectory: hold mass 1/25 — not worth compiling.
        let traj = Plant::trajectory(s, trip.clone(), 2).unwrap();
        assert!(!CompiledPlant::is_profitable(&traj));
        // Sticky Markov walk: hold mass ~0.9 — compiled wins.
        let sticky = Plant::markov_walk(s, trip.clone(), 2, 0.1).unwrap();
        assert!(CompiledPlant::is_profitable(&sticky));
        // Barely-moving walk right at move_prob 1: same as trajectory.
        let jumpy = Plant::markov_walk(s, trip, 2, 1.0).unwrap();
        assert!(!CompiledPlant::is_profitable(&jumpy));
        // Rate plants have no rows at all.
        let rate = Plant::with_demand_rate(Profile::uniform(&s), 0.1).unwrap();
        assert!(!CompiledPlant::is_profitable(&rate));
    }

    #[test]
    fn rate_plants_do_not_compile() {
        let s = GridSpace2D::new(10, 10).unwrap();
        let plant = Plant::with_demand_rate(Profile::uniform(&s), 0.1).unwrap();
        assert!(CompiledPlant::compile(&plant).unwrap().is_none());
        assert!(CompiledPlant::compile_sparse(&plant).unwrap().is_none());
    }

    #[test]
    fn trajectory_and_markov_plants_compile() {
        let s = GridSpace2D::new(20, 20).unwrap();
        let t = Plant::trajectory(s, Region::rect(0, 0, 2, 2), 1).unwrap();
        let c = CompiledPlant::compile(&t).unwrap().unwrap();
        assert_eq!(c.states(), 400);
        assert_eq!(c.initial_state(), 10 * 20 + 10);
        assert!(!c.is_sparse());
        assert_eq!(c.compiled_states(), 400);
        assert!((c.occupancy() - 1.0).abs() < 1e-15);
        let m = markov_plant();
        assert!(CompiledPlant::compile(&m).unwrap().is_some());
    }

    #[test]
    fn demand_prob_matches_row_mass_into_trip_set() {
        let plant = markov_plant();
        for c in [
            CompiledPlant::compile(&plant).unwrap().unwrap(),
            CompiledPlant::compile_sparse(&plant).unwrap().unwrap(),
        ] {
            let space = *plant.space();
            let trip = plant.trip_set().unwrap().clone();
            for cell in [0usize, 5, 62, 200, 465, 899] {
                let state = space.demand_at(cell).unwrap();
                let want: f64 = plant
                    .transition_row(state)
                    .unwrap()
                    .iter()
                    .filter(|(d, _)| trip.contains(*d))
                    .map(|&(_, p)| p)
                    .sum();
                assert!(
                    (c.demand_prob(cell) - want).abs() < 1e-12,
                    "cell {cell}: {} vs {want}",
                    c.demand_prob(cell)
                );
            }
        }
    }

    #[test]
    fn next_demand_respects_budget_and_lands_in_trip_set() {
        let plant = markov_plant();
        let c = CompiledPlant::compile(&plant).unwrap().unwrap();
        let trip = plant.trip_set().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut state = c.initial_state();
        let mut budget_hits = 0;
        let mut demands = 0;
        for _ in 0..200 {
            match c.next_demand(&mut state, 3_000, &mut rng) {
                CompiledEvent::Demand { quiet_gap, demand } => {
                    assert!(quiet_gap < 3_000);
                    assert!(trip.contains(demand));
                    assert_eq!(
                        state as usize,
                        c.space().index_of(demand).unwrap(),
                        "state must follow the demand"
                    );
                    demands += 1;
                }
                CompiledEvent::Quiet { ticks } => {
                    assert_eq!(ticks, 3_000);
                    budget_hits += 1;
                }
            }
        }
        assert!(demands > 0, "compiled sampler never produced a demand");
        // With a 16-cell trip set on 900 cells and slow mixing, some
        // 3000-tick windows should be demand-free too.
        assert!(budget_hits > 0, "budget cap never exercised");
        // Zero budget is all-quiet.
        assert_eq!(
            c.next_demand(&mut state, 0, &mut rng),
            CompiledEvent::Quiet { ticks: 0 }
        );
    }

    #[test]
    fn sparse_and_eager_event_streams_are_bit_identical() {
        // The tentpole contract: on any plant both backends accept, the
        // same seed must produce the exact same event sequence — lazy
        // builds consume no RNG and the table algebra is shared.
        let plants = [
            markov_plant(),
            Plant::markov_walk(
                GridSpace2D::new(57, 23).unwrap(),
                Region::rect(0, 0, 4, 4),
                3,
                0.03,
            )
            .unwrap(),
            Plant::trajectory(
                GridSpace2D::new(25, 25).unwrap(),
                Region::rect(0, 0, 2, 2),
                2,
            )
            .unwrap(),
        ];
        for (pi, plant) in plants.iter().enumerate() {
            let eager = CompiledPlant::compile_eager(plant).unwrap().unwrap();
            let sparse = CompiledPlant::compile_sparse(plant).unwrap().unwrap();
            assert!(sparse.is_sparse() && !eager.is_sparse());
            assert_eq!(eager.initial_state(), sparse.initial_state());
            for seed in [1u64, 7, 1234] {
                let mut rng_e = StdRng::seed_from_u64(seed);
                let mut rng_s = StdRng::seed_from_u64(seed);
                let mut st_e = eager.initial_state();
                let mut st_s = sparse.initial_state();
                for step in 0..400 {
                    let ev_e = eager.next_demand(&mut st_e, 2_000, &mut rng_e);
                    let ev_s = sparse.next_demand(&mut st_s, 2_000, &mut rng_s);
                    assert_eq!(
                        ev_e, ev_s,
                        "plant {pi} seed {seed} event {step}: backends diverged"
                    );
                    assert_eq!(st_e, st_s, "plant {pi} seed {seed} event {step}: state");
                }
            }
            // The sparse side visited a strict subset of the space but
            // produced the full stream.
            assert!(sparse.compiled_states() <= sparse.states());
            assert!(sparse.occupancy() > 0.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn sparse_matches_eager_on_arbitrary_plants(
            nx in 2u32..34,
            ny in 2u32..34,
            step in 1u32..4,
            move_prob in 0.01..=1.0f64,
            trip in (0u32..6, 0u32..6),
            seed in 0u64..u64::MAX,
        ) {
            let space = GridSpace2D::new(nx, ny).unwrap();
            let region = Region::rect(0, 0, trip.0.min(nx - 1), trip.1.min(ny - 1));
            let plant = Plant::markov_walk(space, region, step, move_prob).unwrap();
            let eager = CompiledPlant::compile_eager(&plant).unwrap().unwrap();
            let sparse = CompiledPlant::compile_sparse(&plant).unwrap().unwrap();
            let mut rng_e = StdRng::seed_from_u64(seed);
            let mut rng_s = StdRng::seed_from_u64(seed);
            let mut st_e = eager.initial_state();
            let mut st_s = sparse.initial_state();
            for _ in 0..60 {
                let ev_e = eager.next_demand(&mut st_e, 700, &mut rng_e);
                let ev_s = sparse.next_demand(&mut st_s, 700, &mut rng_s);
                prop_assert_eq!(ev_e, ev_s);
                prop_assert_eq!(st_e, st_s);
            }
        }
    }

    #[test]
    fn sparse_clone_preserves_tables_and_stream() {
        let plant = markov_plant();
        let sparse = CompiledPlant::compile_sparse(&plant).unwrap().unwrap();
        // Warm a few states, then clone: the clone must continue the
        // exact same stream from the same tables.
        let mut rng = StdRng::seed_from_u64(5);
        let mut state = sparse.initial_state();
        for _ in 0..20 {
            sparse.next_demand(&mut state, 1_000, &mut rng);
        }
        let cloned = sparse.clone();
        assert_eq!(cloned.compiled_states(), sparse.compiled_states());
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let mut sa = sparse.initial_state();
        let mut sb = cloned.initial_state();
        for _ in 0..100 {
            assert_eq!(
                sparse.next_demand(&mut sa, 500, &mut rng_a),
                cloned.next_demand(&mut sb, 500, &mut rng_b)
            );
        }
    }

    impl SparseTables {
        /// The cells whose slots hold a compiled row, in cell order.
        fn compiled_cells(&self) -> Vec<usize> {
            self.pages
                .iter()
                .enumerate()
                .filter_map(|(p, page)| page.get().map(|page| (p, page)))
                .flat_map(|(p, page)| {
                    page.iter()
                        .enumerate()
                        .filter(|(_, slot)| slot.get().is_some())
                        .map(move |(i, _)| p * PAGE_CELLS + i)
                })
                .collect()
        }
    }

    fn sparse_cells(c: &CompiledPlant) -> Vec<usize> {
        match &c.backend {
            Backend::Sparse(t) => t.compiled_cells(),
            Backend::Eager(_) => panic!("expected the sparse backend"),
        }
    }

    #[test]
    fn shared_sparse_plant_is_bit_identical_at_any_thread_count() {
        // One sparse plant shared by every thread of a sharded campaign:
        // all shards start in the same state, so first visits race. The
        // per-shard logs must not depend on the thread count or on who
        // built a row, and every visited state is counted once.
        use crate::simulation::{campaign_compile, run_campaign_shard, shard_layout, shard_seed};
        use crate::{Adjudicator, Channel, OperationLog, ProtectionSystem};
        use divrel_demand::mapping::FaultRegionMap;
        use divrel_demand::version::ProgramVersion;

        // The walk starts at the centre (100, 75), beside the trip set.
        let space = GridSpace2D::new(200, 150).unwrap();
        let plant = Plant::markov_walk(space, Region::rect(103, 68, 115, 82), 2, 0.05).unwrap();
        let map = FaultRegionMap::new(
            space,
            vec![
                Region::rect(103, 68, 108, 82),
                Region::rect(106, 72, 115, 76),
            ],
        )
        .unwrap();
        let system = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, false])),
                Channel::new("B", ProgramVersion::new(vec![true, true])),
            ],
            Adjudicator::OneOutOfN,
            map,
        )
        .unwrap();
        let steps = 1_200_000;
        let layout = shard_layout(steps, 21);
        assert!(campaign_compile(&plant, steps).unwrap().is_some());
        let run = |compiled: &CompiledPlant, threads: usize| -> Vec<OperationLog> {
            // Every thread starts its first shard at the same moment, so
            // first visits around the initial state race.
            let start = std::sync::Barrier::new(threads);
            let mut logs: Vec<(usize, OperationLog)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (layout, system, plant, start) = (&layout, &system, &plant, &start);
                        scope.spawn(move || {
                            start.wait();
                            (t..layout.len())
                                .step_by(threads)
                                .map(|shard| {
                                    let log = run_campaign_shard(
                                        plant,
                                        Some(compiled),
                                        system,
                                        steps,
                                        layout[shard],
                                        shard_seed(99, shard),
                                    )
                                    .unwrap();
                                    (shard, log)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("shard thread"))
                    .collect()
            });
            logs.sort_by_key(|&(shard, _)| shard);
            logs.into_iter().map(|(_, log)| log).collect()
        };
        let eager = CompiledPlant::compile_eager(&plant).unwrap().unwrap();
        let reference = run(&eager, 1);
        assert!(reference.iter().map(|l| l.demands()).sum::<u64>() > 0);
        let serial = CompiledPlant::compile_sparse(&plant).unwrap().unwrap();
        assert_eq!(run(&serial, 1), reference, "serial sparse vs eager");
        let visited = sparse_cells(&serial);
        assert_eq!(serial.compiled_states(), visited.len());
        assert!(visited.len() < serial.states());
        for threads in [2, 7] {
            let shared = CompiledPlant::compile_sparse(&plant).unwrap().unwrap();
            assert_eq!(run(&shared, threads), reference, "{threads} threads");
            assert_eq!(sparse_cells(&shared), visited, "{threads} threads");
            assert_eq!(shared.compiled_states(), visited.len(), "{threads} threads");
            // A warm shared plant clones with its rows and its count.
            let cloned = shared.clone();
            assert_eq!(cloned.compiled_states(), visited.len());
            assert_eq!(run(&cloned, threads), reference);
            assert_eq!(cloned.compiled_states(), visited.len());
        }
    }

    #[test]
    fn huge_spaces_compile_sparsely_and_sample() {
        // 2080 × 2080 = 4,326,400 cells: just past MAX_COMPILED_CELLS
        // (4,194,304), so `compile` must pick the sparse backend — and a
        // slow-mixing walk must ride it without enumerating the space.
        let space = GridSpace2D::new(2080, 2080).unwrap();
        assert!(space.cell_count() > MAX_COMPILED_CELLS);
        let plant = Plant::markov_walk(space, Region::rect(0, 0, 40, 40), 2, 0.02).unwrap();
        let c = CompiledPlant::compile(&plant).unwrap().unwrap();
        assert!(c.is_sparse());
        assert_eq!(c.states(), 4_326_400);
        let mut rng = StdRng::seed_from_u64(9);
        let mut state = c.initial_state();
        let mut quiet_total = 0u64;
        for _ in 0..50 {
            match c.next_demand(&mut state, 100_000, &mut rng) {
                CompiledEvent::Quiet { ticks } => quiet_total += ticks,
                CompiledEvent::Demand { quiet_gap, .. } => quiet_total += quiet_gap,
            }
        }
        assert!(quiet_total > 0);
        // The chain visited a vanishing fraction of the space.
        assert!(
            c.compiled_states() < 100_000,
            "sparse backend compiled {} states",
            c.compiled_states()
        );
        assert!(c.occupancy() < 0.05);
    }

    #[test]
    fn degenerate_single_cell_space_demands_every_tick() {
        // A 1×1 space with the trip set on its only cell: every tick
        // re-enters the trip set, so the compiled demand gap is always 0.
        let s = GridSpace2D::new(1, 1).unwrap();
        let plant = Plant::markov_walk(s, Region::rect(0, 0, 0, 0), 1, 1.0).unwrap();
        let c = CompiledPlant::compile(&plant).unwrap().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = c.initial_state();
        match c.next_demand(&mut state, 10, &mut rng) {
            CompiledEvent::Demand { quiet_gap, .. } => assert_eq!(quiet_gap, 0),
            other => panic!("expected an immediate demand, got {other:?}"),
        }
    }

    #[test]
    fn interval_distribution_matches_stepwise_simulation() {
        // The compiled sampler and the tick loop are the same process:
        // compare mean demand interval over many demands.
        let plant = markov_plant();
        let c = CompiledPlant::compile(&plant).unwrap().unwrap();
        let demands_wanted = 4_000;

        let mut rng = StdRng::seed_from_u64(10);
        let mut state = c.initial_state();
        let mut compiled_gaps = Vec::with_capacity(demands_wanted);
        while compiled_gaps.len() < demands_wanted {
            if let CompiledEvent::Demand { quiet_gap, .. } =
                c.next_demand(&mut state, u64::MAX, &mut rng)
            {
                compiled_gaps.push(quiet_gap as f64);
            }
        }

        let mut rng = StdRng::seed_from_u64(11);
        let mut s = plant.initial_state();
        let mut stepwise_gaps = Vec::with_capacity(demands_wanted);
        let mut gap = 0u64;
        while stepwise_gaps.len() < demands_wanted {
            let (next, ev) = plant.step(s, &mut rng);
            s = next;
            match ev {
                PlantEvent::Quiet => gap += 1,
                PlantEvent::Demand(_) => {
                    stepwise_gaps.push(gap as f64);
                    gap = 0;
                }
            }
        }

        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mc, ms) = (mean(&compiled_gaps), mean(&stepwise_gaps));
        // Heavy-tailed-ish intervals: compare means within 10%.
        assert!(
            (mc - ms).abs() / ms < 0.1,
            "compiled mean gap {mc} vs stepwise {ms}"
        );
    }

    #[test]
    fn alias_forest_reproduces_weights() {
        let mut work = AliasWork::default();
        let mut f = AliasForest::new(2);
        f.push_state(&[(0, 0.1), (1, 0.3), (2, 0.6)], &mut work);
        f.push_state(&[], &mut work);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[f.sample(0, &mut rng) as usize] += 1;
        }
        for (i, want) in [0.1, 0.3, 0.6].iter().enumerate() {
            let freq = counts[i] as f64 / n as f64;
            assert!((freq - want).abs() < 0.01, "cell {i}: {freq} vs {want}");
        }
    }

    #[test]
    fn single_uniform_alias_reproduces_weights_exactly_on_a_grid() {
        // Sweep a dense uniform grid through sample_with: the measure of
        // v-values landing on each cell must equal the cell's weight to
        // grid resolution — the single-draw lookup is exact, not
        // approximate.
        let weights = [0.15, 0.05, 0.5, 0.3];
        let mut work = AliasWork::default();
        let mut f = AliasForest::new(1);
        f.push_state(
            &[
                (0, weights[0]),
                (1, weights[1]),
                (2, weights[2]),
                (3, weights[3]),
            ],
            &mut work,
        );
        let grid = 400_000usize;
        let mut counts = [0u64; 4];
        for k in 0..grid {
            let v = (k as f64 + 0.5) / grid as f64;
            counts[f.sample_with(0, v) as usize] += 1;
        }
        for (i, want) in weights.iter().enumerate() {
            let freq = counts[i] as f64 / grid as f64;
            assert!(
                (freq - want).abs() < 2e-5,
                "cell {i}: measure {freq} vs weight {want}"
            );
        }
        // The extreme uniforms stay in range.
        let _ = f.sample_with(0, 0.0);
        let _ = f.sample_with(0, ONE_BELOW);
    }

    #[test]
    fn branch_uniform_rescales_wide_branches_and_redraws_thin_ones() {
        let mut rng = StdRng::seed_from_u64(9);
        // Wide branch: pure algebra, no draw, linear map onto [0, 1).
        let v = branch_uniform(0.25, 0.2, 0.4, &mut rng);
        assert!((v - 0.125).abs() < 1e-15);
        let v = branch_uniform(0.599_999, 0.2, 0.4, &mut rng);
        assert!(v < 1.0);
        assert!((0.0..1.0).contains(&branch_uniform(0.2, 0.2, 0.4, &mut rng)));
        // Rounding at the top edge clamps inside [0, 1).
        assert!(branch_uniform(0.6, 0.2, 0.4, &mut rng) < 1.0);
        // Thin branch: the recycled uniform would have too little
        // resolution, so a fresh draw is taken instead (the two calls
        // advance the stream — their outputs differ).
        let thin = FUSE_MIN_BRANCH / 4.0;
        let a = branch_uniform(thin / 2.0, 0.0, thin, &mut rng);
        let b = branch_uniform(thin / 2.0, 0.0, thin, &mut rng);
        assert_ne!(a.to_bits(), b.to_bits(), "thin branch must redraw");
        assert!((0.0..1.0).contains(&a) && (0.0..1.0).contains(&b));
    }
}
