//! Causal critical-path / bottleneck analysis over a [`LifecycleLog`].
//!
//! Three views, all derived from data the recorder already captures:
//!
//! 1. **Hierarchical CPI stack** ([`CpiStack`]): the twelve per-slot
//!    [`StallCause`] buckets regrouped top-down into six classes (base,
//!    reuse-recovered, frontend, bad-speculation, backend-memory,
//!    backend-core). The regrouping is a *partition*, so the six groups
//!    sum to exactly `cycles × commit_width` whenever the underlying
//!    breakdown does — the PR-1 invariant survives the hierarchy.
//!
//! 2. **Critical path** ([`critical_path`]): a backward walk over the
//!    per-instruction causal DAG (stage timestamps + wait-edges) from
//!    the last retiring record to the start of recording. Every step
//!    covers a half-open cycle range and attributes it to one
//!    [`EdgeClass`]; the ranges tile `[start, end]`, so the per-class
//!    attribution sums to the path span *exactly* — no cycle is counted
//!    twice and none is lost.
//!
//! 3. **What-if projections** ([`project`]): a forward re-walk of the
//!    same DAG computing each record's projected completion time with
//!    selected edge classes zeroed (perfect branch prediction, perfect
//!    CI reuse, infinite replica buffer). The projection replays only
//!    *observed* latencies and zeroing only removes them, so two
//!    properties hold by construction:
//!
//!    * **bounding** — every projection is ≤ the measured cycle count
//!      (the un-zeroed replay reproduces timestamps ≤ the observed
//!      ones, by induction over the DAG);
//!    * **monotonicity** — a superset zero-set never projects more
//!      cycles, so `perfect-everything ≥ perfect-BP ≥ measured` in
//!      speedup terms.
//!
//! The projections are *speed limits* (optimistic limit-study bounds),
//! not predictions: zeroing refetch gaps keeps the pollution-induced
//! cache misses of the measured run, while a real oracle-BP machine
//! re-times everything. `exp_bottleneck` validates the perfect-BP
//! projection against an actual oracle-BP simulation run.
//!
//! [`analyze`] reads the log once: it places the records by lid into one
//! view, then runs the critical-path walk and a single fused forward
//! pass that projects all [`SCENARIOS`] at once over that view.

use crate::lifecycle::{Fate, InstLane, InstRecord, LifecycleLog, WaitEdgeKind};
use crate::stall::{StallBreakdown, StallCause};
use std::collections::{HashMap, VecDeque};

// ---------------------------------------------------------------------------
// Hierarchical CPI stack
// ---------------------------------------------------------------------------

/// The six top-down groups, in display order. A partition of the twelve
/// [`StallCause`] buckets (with `reuse_recovered` carved out of
/// `useful`), so the groups reconcile exactly with the per-slot
/// attribution.
pub const CPI_GROUPS: [&str; 6] = [
    "base",
    "reuse_recovered",
    "frontend",
    "bad_speculation",
    "backend_memory",
    "backend_core",
];

/// Commit-slot counts per top-down group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpiStack {
    /// Useful slots filled by normally-executed instructions.
    pub base: u64,
    /// Useful slots filled by instructions that reused a CI replica
    /// value — work the mechanism recovered instead of re-executing.
    pub reuse_recovered: u64,
    /// Fetch-starved + in-order-dispatch-window slots.
    pub frontend: u64,
    /// Flush/repair slots (branch mispredictions, validation failures).
    pub bad_speculation: u64,
    /// D-cache-miss + LSQ-full slots.
    pub backend_memory: u64,
    /// Execution-core slots: FU/issue contention, data dependencies,
    /// rename/ROB pressure, commit bandwidth, replica arbitration.
    pub backend_core: u64,
}

impl CpiStack {
    /// Regroup a per-slot breakdown. `committed_reuse` (≤ the `useful`
    /// bucket) is carved out as the reuse-recovered segment.
    pub fn from_breakdown(stall: &StallBreakdown, committed_reuse: u64) -> CpiStack {
        let g = |c: StallCause| stall.get(c);
        let useful = g(StallCause::Useful);
        let reuse = committed_reuse.min(useful);
        CpiStack {
            base: useful - reuse,
            reuse_recovered: reuse,
            frontend: g(StallCause::FetchStarved) + g(StallCause::IqFull),
            bad_speculation: g(StallCause::RepairFlush),
            backend_memory: g(StallCause::DCacheMiss) + g(StallCause::LsqFull),
            backend_core: g(StallCause::FuContention)
                + g(StallCause::DataDependency)
                + g(StallCause::RenameRegs)
                + g(StallCause::RobFull)
                + g(StallCause::CommitBandwidth)
                + g(StallCause::ReplicaArbitration),
        }
    }

    /// `(group key, slots)` in [`CPI_GROUPS`] order.
    pub fn iter(&self) -> [(&'static str, u64); 6] {
        [
            ("base", self.base),
            ("reuse_recovered", self.reuse_recovered),
            ("frontend", self.frontend),
            ("bad_speculation", self.bad_speculation),
            ("backend_memory", self.backend_memory),
            ("backend_core", self.backend_core),
        ]
    }

    /// Total slots across the six groups.
    pub fn total(&self) -> u64 {
        self.iter().iter().map(|&(_, n)| n).sum()
    }

    /// The hierarchy must preserve the per-slot invariant: groups sum
    /// to `cycles × width`.
    pub fn check_sum(&self, cycles: u64, width: u64) -> Result<(), String> {
        let want = cycles * width;
        let got = self.total();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "CPI-stack groups sum to {got}, expected cycles*width = {want}"
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

/// What a critical-path segment's cycles were spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EdgeClass {
    /// Waiting for an older in-flight producer of a source operand.
    Producer = 0,
    /// A load served by the L2.
    CacheL2,
    /// A load served by the L3.
    CacheL3,
    /// A load served by main memory.
    CacheMem,
    /// Port/bank contention on the D-cache.
    Port,
    /// Waiting for an older store's address/data.
    StoreDisambiguation,
    /// A validated reuse waiting for its replica value.
    ReplicaValue,
    /// Refetch after a squash: the gap between a flushed record's death
    /// and the next correct-path fetch.
    MispredictRefetch,
    /// Fetch/decode/rename pipeline depth and fetch-chain gaps.
    Frontend,
    /// Execution latency on a functional unit (hit loads included).
    Execute,
    /// Completed but waiting for in-order commit.
    Commit,
    /// Dispatched and waiting with no identifiable causal edge
    /// (issue-bandwidth / scheduler occupancy).
    Schedule,
    /// The walk could not continue (dropped records truncate the DAG).
    Unresolved,
}

/// Number of edge classes.
pub const NUM_CLASSES: usize = 13;

/// All classes, in bucket order.
pub const ALL_CLASSES: [EdgeClass; NUM_CLASSES] = [
    EdgeClass::Producer,
    EdgeClass::CacheL2,
    EdgeClass::CacheL3,
    EdgeClass::CacheMem,
    EdgeClass::Port,
    EdgeClass::StoreDisambiguation,
    EdgeClass::ReplicaValue,
    EdgeClass::MispredictRefetch,
    EdgeClass::Frontend,
    EdgeClass::Execute,
    EdgeClass::Commit,
    EdgeClass::Schedule,
    EdgeClass::Unresolved,
];

impl EdgeClass {
    /// Stable snake_case key (used in JSON snapshots).
    pub fn key(self) -> &'static str {
        match self {
            EdgeClass::Producer => "producer",
            EdgeClass::CacheL2 => "cache_l2",
            EdgeClass::CacheL3 => "cache_l3",
            EdgeClass::CacheMem => "cache_mem",
            EdgeClass::Port => "port",
            EdgeClass::StoreDisambiguation => "store_disambiguation",
            EdgeClass::ReplicaValue => "replica_value",
            EdgeClass::MispredictRefetch => "mispredict_refetch",
            EdgeClass::Frontend => "frontend",
            EdgeClass::Execute => "execute",
            EdgeClass::Commit => "commit",
            EdgeClass::Schedule => "schedule",
            EdgeClass::Unresolved => "unresolved",
        }
    }

    fn from_wait(kind: WaitEdgeKind, detail: &str) -> EdgeClass {
        match kind {
            WaitEdgeKind::Producer => EdgeClass::Producer,
            WaitEdgeKind::CacheMiss => match detail {
                "l2" => EdgeClass::CacheL2,
                "l3" => EdgeClass::CacheL3,
                _ => EdgeClass::CacheMem,
            },
            WaitEdgeKind::Port => EdgeClass::Port,
            WaitEdgeKind::StoreDisambiguation => EdgeClass::StoreDisambiguation,
            WaitEdgeKind::ReplicaValue => EdgeClass::ReplicaValue,
        }
    }
}

/// One (pc, class) aggregate along the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSeg {
    /// Static word PC the cycles are anchored to (the waiting
    /// instruction; for refetch segments, the squashed instruction).
    pub pc: u64,
    /// What the cycles were spent on.
    pub class: EdgeClass,
    /// Cycles attributed.
    pub cycles: u64,
}

/// The critical path through one run's causal DAG.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CritPath {
    /// Cycles covered: last retirement − start of recording. The
    /// per-class attribution sums to exactly this.
    pub span: u64,
    /// Cycle recording started (reconciliation with the run's cycle
    /// count is exact only when this is 0).
    pub start_cycle: u64,
    /// Cycles per [`EdgeClass`], `classes[class as usize]`.
    pub classes: [u64; NUM_CLASSES],
    /// Heaviest (pc, class) aggregates, descending, capped.
    pub top: Vec<PathSeg>,
    /// Per static branch: mispredict-refetch cycles on the critical
    /// path, descending — the per-branch CI-reuse headroom signal.
    pub branch_refetch: Vec<(u64, u64)>,
    /// Records visited by the walk.
    pub steps: usize,
}

/// How many (pc, class) aggregates [`CritPath::top`] retains.
pub const TOP_SEGMENTS: usize = 16;

/// End-of-life event time of a record: when its value (or death)
/// became visible downstream.
fn end_time(r: &InstRecord) -> Option<u64> {
    r.retire()
        .or(r.complete())
        .or(r.issue())
        .or(r.dispatch())
        .or(r.fetch())
}

/// Value-availability time of a record (for dependence edges).
fn value_time(r: &InstRecord) -> Option<u64> {
    r.complete()
        .or(r.retire())
        .or(r.issue())
        .or(r.dispatch())
        .or(r.fetch())
}

/// A squashed normal-lane record: wrong-path work, which perfect branch
/// prediction would never have fetched.
fn wrong_path(r: &InstRecord) -> bool {
    r.fate == Fate::Squashed && r.lane == InstLane::Normal
}

// ---------------------------------------------------------------------------
// The lid-dense view
// ---------------------------------------------------------------------------

/// View index meaning "no record": an edge whose target was not
/// retained, or no earlier fetch.
const ABSENT: u32 = u32::MAX;

/// One wait-edge, decoded once for the analysis.
#[derive(Debug, Clone, Copy)]
struct Dep {
    /// Cycles the wait was observed.
    cycles: u64,
    /// View index of the record waited on, or [`ABSENT`].
    target: u32,
    class: EdgeClass,
}

/// One log's retained records, placed by lid. Built once per analysis
/// and shared by the critical-path walk and the fused what-if pass.
///
/// Lids are dense and unique, so a record's slot is `lid - base`: one
/// O(n) placement replaces a sort and a hash map, and the analysis
/// addresses records by their index in lid order. Wait-edges are
/// decoded into one flat array with their targets resolved to such
/// indices; a lid with no retained record (dropped by a ring cap)
/// resolves to [`ABSENT`].
struct View<'a> {
    /// Cycle recording started.
    start: u64,
    /// Retained records in lid order.
    recs: Vec<&'a InstRecord>,
    /// The wait-edges of `recs[i]`, in order, are
    /// `deps[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    deps: Vec<Dep>,
    /// Every cycle that squashed wrong-path records, ascending, with the
    /// index of the youngest record it squashed.
    squashes: Vec<(u64, u32)>,
}

impl<'a> View<'a> {
    fn new(log: &'a LifecycleLog) -> View<'a> {
        let mut ring = Vec::with_capacity(log.len());
        let mut squashed: Vec<(u64, u64)> = Vec::new();
        let (mut base, mut last) = (u64::MAX, 0);
        let mut n_edges = 0;
        for r in log.records() {
            ring.push(r);
            n_edges += r.edges.len();
            base = base.min(r.lid);
            last = last.max(r.lid);
            if let Some(c) = r.retire().filter(|_| wrong_path(r)) {
                match squashed.last_mut() {
                    Some(prev) if prev.0 == c => prev.1 = prev.1.max(r.lid),
                    _ => squashed.push((c, r.lid)),
                }
            }
        }
        // The ring retires in cycle order, so this is already sorted
        // and the sort only checks it; merging equal cycles keeps the
        // youngest record squashed in each.
        squashed.sort_unstable();
        squashed.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        let span = (last + 1).saturating_sub(base);
        assert!(
            span < u64::from(ABSENT),
            "lifecycle analysis indexes records with u32"
        );
        let slot = |lid: u64| (lid - base) as usize;
        // `pos[slot]`: ring position, then (after the renumbering below)
        // view index of the lid in that slot, or ABSENT.
        let mut pos = vec![ABSENT; span as usize];
        for (k, r) in ring.iter().enumerate() {
            pos[slot(r.lid)] = k as u32;
        }
        // Renumber in slot order (a counting sort by lid), decoding each
        // record's edges on the way. Targets are stored as slots first:
        // an edge can name a younger record not yet renumbered.
        let mut recs = Vec::with_capacity(ring.len());
        let mut offsets = Vec::with_capacity(ring.len() + 1);
        let mut deps = Vec::with_capacity(n_edges);
        offsets.push(0);
        for p in pos.iter_mut().filter(|p| **p != ABSENT) {
            let r = ring[*p as usize];
            *p = recs.len() as u32;
            recs.push(r);
            deps.extend(r.edges.iter().map(|e| {
                Dep {
                    cycles: e.cycles,
                    target: e
                        .target
                        .filter(|lid| (base..=last).contains(lid))
                        .map_or(ABSENT, |lid| slot(lid) as u32),
                    class: EdgeClass::from_wait(e.kind, e.detail),
                }
            }));
            offsets.push(u32::try_from(deps.len()).expect("wait-edge count fits u32"));
        }
        for d in deps.iter_mut().filter(|d| d.target != ABSENT) {
            d.target = pos[d.target as usize];
        }
        let squashes = squashed
            .into_iter()
            .map(|(c, lid)| (c, pos[slot(lid)]))
            .collect();
        View {
            start: log.start_cycle(),
            recs,
            offsets,
            deps,
            squashes,
        }
    }

    /// The decoded wait-edges of `recs[i]`, in edge order.
    fn deps(&self, i: usize) -> &[Dep] {
        &self.deps[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

// ---------------------------------------------------------------------------
// The critical-path walk
// ---------------------------------------------------------------------------

/// Critical-path cycles by class and by (pc, class). The
/// mispredict-refetch entries double as the per-branch refetch table.
struct Walk {
    attributed: [u64; NUM_CLASSES],
    segs: HashMap<(u64, EdgeClass), u64>,
}

impl Walk {
    fn add(&mut self, pc: u64, class: EdgeClass, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.attributed[class as usize] += cycles;
        *self.segs.entry((pc, class)).or_insert(0) += cycles;
    }
}

/// Compute the critical path of a recorded run. Returns a default
/// (zero-span) path when the log holds no records.
pub fn critical_path(log: &LifecycleLog) -> CritPath {
    walk(&View::new(log))
}

fn walk(v: &View) -> CritPath {
    let recs = &v.recs;
    let start = v.start;
    // Previous fetched record, per record, for the in-order fetch chain.
    let mut prev_fetch = vec![ABSENT; recs.len()];
    let mut last_fetched = ABSENT;
    for (i, r) in recs.iter().enumerate() {
        prev_fetch[i] = last_fetched;
        if r.fetch().is_some() {
            last_fetched = i as u32;
        }
    }

    // Start from the committed record that retired last (any record as
    // a fallback, so a squash-only window still walks). View order is
    // lid order, so the index breaks ties between equal end times.
    let end_rec = recs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.fate == Fate::Committed)
        .filter_map(|(i, r)| end_time(r).map(|t| (t, i)))
        .max()
        .or_else(|| {
            recs.iter()
                .enumerate()
                .filter_map(|(i, r)| end_time(r).map(|t| (t, i)))
                .max()
        });
    let Some((t_end, mut cur)) = end_rec else {
        return CritPath::default();
    };

    let mut w = Walk {
        attributed: [0; NUM_CLASSES],
        segs: HashMap::new(),
    };
    let mut t = t_end;
    // `t` only falls, so the latest squash retirement at or before it
    // is found by a cursor into `v.squashes` that only moves backward.
    let mut squashes_le_t = v.squashes.len();
    let mut steps = 0usize;
    let limit = recs.len().saturating_mul(4) + 64;
    while t > start && steps < limit {
        steps += 1;
        let r = recs[cur];
        // A squashed record's entire residency is speculation-window
        // time: every span it contributes is mispredict-caused (perfect
        // branch prediction would remove it).
        let cls = |c: EdgeClass| {
            if wrong_path(r) {
                EdgeClass::MispredictRefetch
            } else {
                c
            }
        };
        // Completed-to-retired: waiting for in-order commit.
        if let Some(c) = r.complete().filter(|&c| c < t) {
            w.add(r.pc(), cls(EdgeClass::Commit), t - c);
            t = c;
        }
        // Issue-to-complete: execution latency, with the record's own
        // memory/port wait-edges carved out of the span first.
        if let Some(i) = r.issue().filter(|&i| i < t) {
            let mut span = t - i;
            for d in v.deps(cur) {
                if span == 0 {
                    break;
                }
                if matches!(
                    d.class,
                    EdgeClass::CacheL2 | EdgeClass::CacheL3 | EdgeClass::CacheMem | EdgeClass::Port
                ) {
                    let take = d.cycles.min(span);
                    w.add(r.pc(), cls(d.class), take);
                    span -= take;
                }
            }
            w.add(r.pc(), cls(EdgeClass::Execute), span);
            t = i;
        }
        // Dispatch-to-issue: follow the binding (latest-arriving)
        // causal edge to an older record when one explains the wait.
        let d = r.dispatch().or(r.decode()).or(r.fetch()).unwrap_or(start);
        // An ABSENT target is out of range of `recs`.
        let binding = v
            .deps(cur)
            .iter()
            .filter_map(|dep| {
                let j = dep.target as usize;
                let te = value_time(recs.get(j)?)?;
                (te < t && te > d).then_some((te, j, dep.class))
            })
            .max_by_key(|&(te, j, _)| (te, j));
        if let Some((te, j, class)) = binding {
            w.add(r.pc(), cls(class), t - te);
            t = te;
            cur = j;
            continue;
        }
        if d < t {
            w.add(r.pc(), cls(EdgeClass::Schedule), t - d);
            t = d;
        }
        // Frontend depth down to the fetch cycle.
        if let Some(f) = r.fetch().filter(|&f| f < t) {
            w.add(r.pc(), cls(EdgeClass::Frontend), t - f);
            t = f;
        }
        // Fetch chain: either a refetch after a squash (attribute the
        // repair gap to the squashed instruction) or the in-order
        // fetch stream.
        if prev_fetch[cur] == ABSENT {
            break;
        }
        let p = prev_fetch[cur] as usize;
        let pf = recs[p].fetch().unwrap_or(start);
        // Latest squash retirement in (pf, t].
        while squashes_le_t > 0 && v.squashes[squashes_le_t - 1].0 > t {
            squashes_le_t -= 1;
        }
        let flush = squashes_le_t
            .checked_sub(1)
            .map(|k| v.squashes[k])
            .filter(|&(c, _)| c > pf);
        if let Some((c, si)) = flush {
            let si = si as usize;
            w.add(recs[si].pc(), EdgeClass::MispredictRefetch, t - c);
            t = c;
            cur = si;
            continue;
        }
        if pf < t {
            w.add(r.pc(), cls(EdgeClass::Frontend), t - pf);
            t = pf;
        }
        cur = p;
    }
    if t > start {
        // Chain truncated (dropped records or the walk limit).
        w.add(0, EdgeClass::Unresolved, t - start);
    }
    let mut top: Vec<PathSeg> = w
        .segs
        .iter()
        .map(|(&(pc, class), &cycles)| PathSeg { pc, class, cycles })
        .collect();
    top.sort_by_key(|s| (std::cmp::Reverse(s.cycles), s.pc, s.class as usize));
    top.truncate(TOP_SEGMENTS);
    let mut branch_refetch: Vec<(u64, u64)> = w
        .segs
        .into_iter()
        .filter(|&((_, class), _)| class == EdgeClass::MispredictRefetch)
        .map(|((pc, _), cycles)| (pc, cycles))
        .collect();
    branch_refetch.sort_by_key(|&(pc, c)| (std::cmp::Reverse(c), pc));
    branch_refetch.truncate(TOP_SEGMENTS);
    CritPath {
        span: t_end - start,
        start_cycle: start,
        classes: w.attributed,
        top,
        branch_refetch,
        steps,
    }
}

// ---------------------------------------------------------------------------
// What-if projections
// ---------------------------------------------------------------------------

/// Which edge classes a what-if projection zeroes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroSet {
    /// Perfect branch prediction: squashed work vanishes and
    /// flush-crossing fetch gaps (refetch penalties) collapse to 0.
    pub branch_repair: bool,
    /// Replica values are always ready: `ReplicaValue` edges cost 0
    /// (infinite replica buffer — no arbitration/creation backlog).
    pub replica_value: bool,
    /// Perfect CI reuse: reused instructions also skip their execution
    /// latency (the replica did the work).
    pub reused_exec: bool,
}

/// The standard speed-limit scenarios, in reporting order. Each later
/// compound scenario zeroes a superset of the earlier ones it contains,
/// so speedups are monotone within the chains documented on
/// [`project`].
pub const SCENARIOS: [(&str, ZeroSet); 4] = [
    (
        "perfect_bp",
        ZeroSet {
            branch_repair: true,
            replica_value: false,
            reused_exec: false,
        },
    ),
    (
        "infinite_replica_buffer",
        ZeroSet {
            branch_repair: false,
            replica_value: true,
            reused_exec: false,
        },
    ),
    (
        "perfect_ci_reuse",
        ZeroSet {
            branch_repair: false,
            replica_value: true,
            reused_exec: true,
        },
    ),
    (
        "perfect_everything",
        ZeroSet {
            branch_repair: true,
            replica_value: true,
            reused_exec: true,
        },
    ),
];

/// One what-if row of the speed-limit table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WhatIfRow {
    /// Scenario key (see [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Projected cycles for the recorded span under the zero-set.
    pub projected_cycles: u64,
}

/// Forward re-walk of the causal DAG with `zero`ed edge classes.
///
/// Replays each record's *observed* latencies (fetch-stream gaps,
/// front-end depth, dependence arrivals, execution time) in lifecycle
/// order and returns the projected cycle count for the recorded span:
/// the latest projected completion among committed records, floored by
/// the commit-bandwidth bound `ceil(committed / width)`.
///
/// Two structural machine limits are modelled alongside the observed
/// latencies, because without them a memory-bound run projects absurd
/// overlap: the instruction `window` (a record cannot dispatch until
/// the record `window` dispatch-slots ahead of it has completed — the
/// real machine frees the slot even later, at in-order retire) and the
/// commit-width floor. `window == 0` disables the window model.
///
/// Guarantees (see module docs for the argument): the projection never
/// exceeds the measured span, and zeroing more classes never increases
/// it. The first guarantee is enforced by construction: the re-walk is
/// an approximation (fetch gaps and the window front can over-serialize
/// by a few percent), but the measured run is itself an upper bound on
/// any speed limit — removing constraints cannot slow the machine down
/// — so the result is clamped to the recorded span.
pub fn project(log: &LifecycleLog, zero: ZeroSet, width: u64, window: usize) -> u64 {
    let [cycles] = project_all(&View::new(log), [zero], width, window);
    cycles
}

/// All standard scenarios projected for one log.
pub fn whatif_table(log: &LifecycleLog, width: u64, window: usize) -> Vec<WhatIfRow> {
    whatif_rows(&View::new(log), width, window)
}

fn whatif_rows(v: &View, width: u64, window: usize) -> Vec<WhatIfRow> {
    let cycles = project_all(v, SCENARIOS.map(|(_, zero)| zero), width, window);
    SCENARIOS
        .iter()
        .zip(cycles)
        .map(|(&(scenario, _), projected_cycles)| WhatIfRow {
            scenario,
            projected_cycles,
        })
        .collect()
}

/// The fused what-if pass: one forward re-walk of the view that
/// projects every zero-set in `zeros` (see [`project`]). Each record's
/// stamps and edges are decoded once; every scenario keeps its own
/// projected times, fetch chain, window occupancy and depth, so each
/// result equals the pass run for that zero-set alone.
fn project_all<const K: usize>(
    v: &View,
    zeros: [ZeroSet; K],
    width: u64,
    window: usize,
) -> [u64; K] {
    let start = v.start;
    // Squash retirements at or before cycle `x`, by a cursor into the
    // sorted `v.squashes`. Fetch cycles rise with lid, so it only moves
    // forward in practice (amortised O(1)), yet it is exact for any
    // order. A fetch gap `(lo, hi]` crossed a flush iff the count at
    // `hi` exceeds the count at `lo`.
    let mut cursor = 0;
    let mut squashes_le = |x: u64| {
        while cursor > 0 && v.squashes[cursor - 1].0 > x {
            cursor -= 1;
        }
        while v.squashes.get(cursor).is_some_and(|&(c, _)| c <= x) {
            cursor += 1;
        }
        cursor
    };
    let squashes_le_start = squashes_le(start);

    // Projected value-availability per record and scenario, in cycles
    // after `start`. A record a scenario skips keeps 0, as does one not
    // yet projected (an edge to itself or a younger record), so folding
    // either into a dependence `max` changes nothing.
    let mut proj: Vec<[u32; K]> = vec![[0; K]; v.recs.len()];
    // Per scenario: the last fetch cycle observed, the squash count at
    // it, and its projected cycle.
    let mut last_fetch_obs = [start; K];
    let mut last_fetch_squashes = [squashes_le_start; K];
    let mut last_fetch_proj = [0u64; K];
    // The finite-window constraint: the machine retires in order, so a
    // record cannot dispatch before the *in-order completion front* of
    // the record `window` slots ahead of it. Each deque holds that
    // running front, one entry per dispatched normal-lane record.
    let mut occupancy: [VecDeque<u64>; K] =
        std::array::from_fn(|_| VecDeque::with_capacity(window));
    let mut inorder_front = [0u64; K];
    let mut depth = [0u64; K];
    let mut committed = 0u64;
    let mut last_end = 0u64;
    for (i, r) in v.recs.iter().enumerate() {
        let wrong = wrong_path(r);
        let occupies = window > 0 && r.lane == InstLane::Normal && r.dispatch().is_some();
        let commits = r.fate == Fate::Committed && r.lane == InstLane::Normal;
        // Front-end depth (decode/rename) at its observed cost.
        let fetch = r.fetch().map(|f| {
            let depth_fe = r.dispatch().or(r.decode()).unwrap_or(f).saturating_sub(f);
            (f, squashes_le(f), depth_fe)
        });
        let deps = v.deps(i);
        // Execution latency at its observed cost.
        let exec = match (r.issue(), r.complete()) {
            (Some(i_), Some(c)) => c.saturating_sub(i_),
            _ => 0,
        };
        for (k, zero) in zeros.iter().enumerate() {
            // Under perfect BP the wrong path is never fetched.
            if zero.branch_repair && wrong {
                continue;
            }
            let mut t = match fetch {
                Some((f, squashes_le_f, depth_fe)) => {
                    let mut delta = f - last_fetch_obs[k];
                    if zero.branch_repair && squashes_le_f > last_fetch_squashes[k] {
                        delta = 0; // the refetch penalty vanishes
                    }
                    last_fetch_proj[k] += delta;
                    last_fetch_obs[k] = f;
                    last_fetch_squashes[k] = squashes_le_f;
                    last_fetch_proj[k] + depth_fe
                }
                // Replicas are injected by the engine, not fetched; keep
                // their observed creation time.
                None => r
                    .dispatch()
                    .or(end_time(r))
                    .unwrap_or(start)
                    .saturating_sub(start),
            };
            // Dependence arrivals (projected).
            for d in deps {
                let zeroed = zero.replica_value && d.class == EdgeClass::ReplicaValue;
                if d.target != ABSENT && !zeroed {
                    t = t.max(u64::from(proj[d.target as usize][k]));
                }
            }
            // Finite window: this record cannot dispatch before the
            // record `window` slots ahead of it has drained.
            if occupies && occupancy[k].len() == window {
                let freed = occupancy[k].pop_front().unwrap_or(0);
                t = t.max(freed);
            }
            let p = t + if zero.reused_exec && r.reused {
                0
            } else {
                exec
            };
            // Lifecycle cycles are bounded at `u32::MAX - 1`, so this only
            // saturates if the re-walk over-serializes a run at that bound.
            proj[i][k] = u32::try_from(p).unwrap_or(u32::MAX);
            if occupies {
                inorder_front[k] = inorder_front[k].max(p);
                occupancy[k].push_back(inorder_front[k]);
            }
            if commits {
                depth[k] = depth[k].max(p);
            }
        }
        if commits {
            committed += 1;
        }
        if r.fate == Fate::Committed {
            last_end = last_end.max(end_time(r).unwrap_or(0));
        }
    }
    let floor = committed.div_ceil(width.max(1));
    // Clamp to the recorded span (last committed retire): a speed
    // limit can never exceed the run it was measured from.
    let measured = last_end.saturating_sub(start);
    depth.map(|d| {
        let projected = d.max(floor);
        if measured > 0 {
            projected.min(measured)
        } else {
            projected
        }
    })
}

// ---------------------------------------------------------------------------
// The combined report
// ---------------------------------------------------------------------------

/// Everything the bottleneck layer derives from one recorded run
/// (stored on `SimStats`, serialized into the snapshot's `bottleneck`
/// object).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BottleneckReport {
    /// The critical path and its attribution.
    pub crit: CritPath,
    /// The speed-limit table.
    pub whatif: Vec<WhatIfRow>,
}

/// Run the full analysis over a finished log. `window` is the machine's
/// instruction-window size (the what-if re-walk models it; 0 = off).
/// The log is placed into one lid-dense view, which the critical-path
/// walk and the fused what-if pass share.
pub fn analyze(log: &LifecycleLog, width: u64, window: usize) -> BottleneckReport {
    let view = View::new(log);
    BottleneckReport {
        crit: walk(&view),
        whatif: whatif_rows(&view, width, window),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::LifecycleLog;
    use crate::rng::Rng64;
    use crate::stall::ALL_CAUSES;

    #[test]
    fn cpi_groups_partition_every_cause() {
        // Charge each cause a distinct prime so any double-count or
        // omission breaks the sum.
        let mut b = StallBreakdown::new();
        let primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        for (c, p) in ALL_CAUSES.into_iter().zip(primes) {
            b.charge(c, p);
        }
        let stack = CpiStack::from_breakdown(&b, 1);
        assert_eq!(stack.total(), b.total());
        assert_eq!(stack.base + stack.reuse_recovered, 2);
        assert_eq!(stack.reuse_recovered, 1);
    }

    #[test]
    fn cpi_stack_check_sum_mirrors_breakdown() {
        let mut b = StallBreakdown::new();
        b.charge(StallCause::Useful, 10);
        b.charge(StallCause::FetchStarved, 6);
        let stack = CpiStack::from_breakdown(&b, 4);
        assert!(stack.check_sum(2, 8).is_ok());
        assert!(stack.check_sum(3, 8).is_err());
    }

    /// A three-instruction chain: load misses to memory, consumer
    /// waits on it, branch squash forces a refetch gap before the
    /// final instruction.
    fn chain_log() -> LifecycleLog {
        let mut log = LifecycleLog::new(0);
        // lid 1: load, fetched at 0, issues at 3, completes at 103.
        let l1 = log.begin_fetch(0x10, || "ld".into(), 0, 2);
        log.note_dispatch(l1, 1, 2);
        log.note_issue(l1, 3);
        log.edge(l1, WaitEdgeKind::CacheMiss, None, "mem", 4);
        log.note_complete(l1, 103);
        // lid 2: consumer, waits on the load's value.
        let l2 = log.begin_fetch(0x18, || "add".into(), 1, 3);
        log.note_dispatch(l2, 2, 3);
        log.edge(l2, WaitEdgeKind::Producer, Some(l1), "", 10);
        log.note_issue(l2, 104);
        log.note_complete(l2, 105);
        // lid 3: mispredicted branch, squashed path dies at 110.
        let l3 = log.begin_fetch(0x20, || "beq".into(), 2, 4);
        log.note_dispatch(l3, 3, 4);
        log.note_issue(l3, 105);
        log.note_complete(l3, 106);
        let wrong = log.begin_fetch(0x28, || "wrong".into(), 3, 5);
        log.note_squash(wrong, 110);
        // lid 5: refetched correct path at 112.
        let l5 = log.begin_fetch(0x30, || "sub".into(), 112, 114);
        log.note_dispatch(l5, 4, 114);
        log.note_issue(l5, 115);
        log.note_complete(l5, 116);
        log.note_commit(l1, 104);
        log.note_commit(l2, 106);
        log.note_commit(l3, 107);
        log.note_commit(l5, 118);
        log
    }

    #[test]
    fn critical_path_tiles_the_span_exactly() {
        let log = chain_log();
        let cp = critical_path(&log);
        assert_eq!(cp.span, 118, "last retire at 118, start at 0");
        let total: u64 = cp.classes.iter().sum();
        assert_eq!(total, cp.span, "attribution must tile the span");
        assert!(cp.classes[EdgeClass::MispredictRefetch as usize] > 0);
        assert!(!cp.top.is_empty());
        // The refetch segment is anchored to the squashed pc.
        assert!(cp.branch_refetch.iter().any(|&(pc, _)| pc == 0x28));
    }

    #[test]
    fn projection_bounds_and_orders() {
        let log = chain_log();
        let width = 8;
        let measured = 118;
        let baseline = project(&log, ZeroSet::default(), width, 256);
        assert!(baseline <= measured, "un-zeroed replay must bound");
        let rows = whatif_table(&log, width, 256);
        let get = |k: &str| {
            rows.iter()
                .find(|r| r.scenario == k)
                .unwrap()
                .projected_cycles
        };
        for r in &rows {
            assert!(r.projected_cycles <= measured, "{}", r.scenario);
            assert!(r.projected_cycles >= 1);
        }
        assert!(get("perfect_everything") <= get("perfect_bp"));
        assert!(get("perfect_everything") <= get("perfect_ci_reuse"));
        assert!(get("perfect_ci_reuse") <= get("infinite_replica_buffer"));
        // Perfect BP erases the refetch gap, so it beats the baseline.
        assert!(get("perfect_bp") < baseline);
    }

    #[test]
    fn empty_log_yields_default_report() {
        let log = LifecycleLog::new(0);
        let rep = analyze(&log, 8, 256);
        assert_eq!(rep.crit.span, 0);
        assert!(rep.whatif.iter().all(|r| r.projected_cycles == 0));
    }

    /// Cycles from the start of recording to the last committed
    /// retirement: the span every projection must stay within.
    fn measured(log: &LifecycleLog) -> u64 {
        log.records()
            .filter(|r| r.fate == Fate::Committed)
            .filter_map(end_time)
            .max()
            .unwrap_or(0)
            .saturating_sub(log.start_cycle())
    }

    /// Checks every property the fused pass must keep against the
    /// standalone analyses of the same log.
    fn check_fused(log: &LifecycleLog, width: u64, window: usize) {
        let rep = analyze(log, width, window);
        assert_eq!(rep.crit, critical_path(log));
        assert_eq!(rep.whatif, whatif_table(log, width, window));
        let total: u64 = rep.crit.classes.iter().sum();
        assert_eq!(total, rep.crit.span, "attribution must tile the span");
        let span = measured(log);
        let mut got = HashMap::new();
        for (row, &(scenario, zero)) in rep.whatif.iter().zip(&SCENARIOS) {
            assert_eq!(row.scenario, scenario);
            assert_eq!(
                row.projected_cycles,
                project(log, zero, width, window),
                "{scenario}: fused row differs from the scenario run alone"
            );
            if span > 0 {
                assert!(row.projected_cycles <= span, "{scenario} exceeds the run");
            }
            got.insert(scenario, row.projected_cycles);
        }
        assert!(got["perfect_everything"] <= got["perfect_bp"]);
        assert!(got["perfect_everything"] <= got["perfect_ci_reuse"]);
        assert!(got["perfect_ci_reuse"] <= got["infinite_replica_buffer"]);
    }

    /// A random well-formed log from a toy in-order-commit machine:
    /// fetches with random stage delays, producer / cache / port /
    /// store / replica-value edges (some to lids that never exist),
    /// random flushes that squash the younger window, and replicas that
    /// deliver or die. Some records stay in flight.
    fn random_log(rng: &mut Rng64, cap: usize) -> LifecycleLog {
        let mut log = LifecycleLog::new(cap);
        let mut window: VecDeque<(u64, u64)> = VecDeque::new();
        let mut replicas: VecDeque<u64> = VecDeque::new();
        let mut lids: Vec<u64> = Vec::new();
        let mut seq = 0;
        for c in 0..rng.gen_range(10, 150) {
            for _ in 0..2 {
                match window.front() {
                    Some(&(lid, done)) if done <= c => {
                        log.note_commit(lid, c);
                        window.pop_front();
                    }
                    _ => break,
                }
            }
            if !window.is_empty() && rng.gen_bool(0.1) {
                let keep = rng.gen_range(0, window.len() as u64) as usize;
                for (lid, _) in window.drain(keep..) {
                    log.note_squash(lid, c);
                }
            }
            if !replicas.is_empty() && rng.gen_bool(0.3) {
                let lid = replicas.pop_front().unwrap();
                log.finish_replica(lid, c, rng.gen_bool(0.7));
            }
            if rng.gen_bool(0.2) {
                let lid = log.begin_replica(rng.gen_range(0, 16), || "rep".into(), c);
                // An older consumer waiting on the younger replica.
                if let Some(&(consumer, _)) = window.back() {
                    log.edge(consumer, WaitEdgeKind::ReplicaValue, Some(lid), "", c);
                }
                replicas.push_back(lid);
                lids.push(lid);
            }
            for _ in 0..rng.gen_range(0, 3) {
                let pc = rng.gen_range(0, 16);
                let decode = c + rng.gen_range(1, 3);
                let lid = log.begin_fetch(pc, || format!("i{pc}"), c, decode);
                let dispatch = decode + rng.gen_range(0, 2);
                let issue = dispatch + rng.gen_range(0, 6);
                let done = issue + rng.gen_range(1, 8);
                log.note_dispatch(lid, seq, dispatch);
                log.note_issue(lid, issue);
                log.note_complete(lid, done);
                log.set_reused(lid, rng.gen_bool(0.2));
                seq += 1;
                for k in 0..rng.gen_range(0, 4) {
                    let older = (!lids.is_empty())
                        .then(|| lids[rng.gen_range(0, lids.len() as u64) as usize]);
                    let (kind, target, detail) = match rng.gen_range(0, 6) {
                        0 => (WaitEdgeKind::Producer, older, ""),
                        1 => (
                            WaitEdgeKind::CacheMiss,
                            None,
                            ["l2", "l3", "mem"][k as usize % 3],
                        ),
                        2 => (WaitEdgeKind::Port, None, "dport"),
                        3 => (WaitEdgeKind::StoreDisambiguation, older, ""),
                        4 => (WaitEdgeKind::Producer, Some(lid + 1000), ""),
                        _ => (WaitEdgeKind::ReplicaValue, replicas.back().copied(), ""),
                    };
                    for n in 0..rng.gen_range(1, 4) {
                        log.edge(lid, kind, target, detail, dispatch + n);
                    }
                }
                window.push_back((lid, done));
                lids.push(lid);
            }
        }
        log
    }

    #[test]
    fn fused_pass_matches_each_scenario_alone_on_random_logs() {
        let mut rng = Rng64::seed_from_u64(0x5EED_C0DE);
        for _ in 0..300 {
            let cap = [0, 0, 4, 25][rng.gen_range(0, 4) as usize];
            let log = random_log(&mut rng, cap);
            let width = rng.gen_range(1, 5);
            let window = [0, 3, 16][rng.gen_range(0, 3) as usize];
            check_fused(&log, width, window);
        }
    }

    #[test]
    fn capped_log_resolves_dropped_targets_to_absent() {
        // Ring of two: lids 1 and 2 are dropped, 3 and 4 retained.
        let mut log = LifecycleLog::new(2);
        let mut lids = Vec::new();
        for i in 0..4 {
            let lid = log.begin_fetch(0x40 + i, || "add".into(), i, i + 1);
            log.note_dispatch(lid, i, i + 2);
            if let Some(&prev) = lids.last() {
                log.edge(lid, WaitEdgeKind::Producer, Some(prev), "", i + 2);
            }
            log.note_issue(lid, i + 4);
            log.note_complete(lid, i + 5);
            lids.push(lid);
        }
        for (i, &lid) in lids.iter().enumerate() {
            log.note_commit(lid, 10 + i as u64);
        }
        assert_eq!(log.dropped(), 2);

        let v = View::new(&log);
        let kept: Vec<u64> = v.recs.iter().map(|r| r.lid).collect();
        assert_eq!(kept, [3, 4]);
        assert_eq!(v.deps(0)[0].target, ABSENT, "lid 2 was dropped");
        assert_eq!(v.deps(1)[0].target, 0, "lid 3 is view index 0");

        // The walk cannot reach the start of recording through dropped
        // records: the remainder is unresolved, and the span still tiles.
        let cp = critical_path(&log);
        assert_eq!(cp.span, 13);
        assert!(cp.classes[EdgeClass::Unresolved as usize] > 0);
        check_fused(&log, 2, 4);
    }

    #[test]
    fn replica_records_without_fetch_stamp() {
        let mut log = LifecycleLog::new(0);
        let first = log.begin_fetch(0x0f, || "sub".into(), 0, 1);
        log.note_dispatch(first, 0, 2);
        log.note_issue(first, 3);
        log.note_complete(first, 4);
        let replica = log.begin_replica(0x10, || "add".into(), 1);
        log.note_issue(replica, 2);
        let consumer = log.begin_fetch(0x10, || "add".into(), 2, 3);
        log.note_dispatch(consumer, 1, 4);
        log.edge(consumer, WaitEdgeKind::ReplicaValue, Some(replica), "", 4);
        log.note_commit(first, 5);
        log.finish_replica(replica, 30, true);
        log.note_issue(consumer, 31);
        log.note_complete(consumer, 32);
        log.set_reused(consumer, true);
        log.note_commit(consumer, 33);

        let v = View::new(&log);
        assert_eq!(v.recs[1].lid, replica);
        assert_eq!(v.recs[1].fetch(), None);
        assert_eq!(v.deps(2)[0].target, 1, "the consumer waits on the replica");

        // The replica wait is on the critical path ...
        let cp = critical_path(&log);
        assert_eq!(cp.span, 33);
        assert!(cp.classes[EdgeClass::ReplicaValue as usize] > 0);
        // ... and an infinite replica buffer removes it.
        let measured = project(&log, ZeroSet::default(), 8, 16);
        let rows = whatif_table(&log, 8, 16);
        assert!(rows[1].projected_cycles < measured, "{rows:?}");
        check_fused(&log, 8, 16);
    }
}
