//! The credit/queue flow model: an exhaustively explored abstraction of
//! the master↔servant window protocol at paper scale.
//!
//! The state tracks the protocol in **bundle units**: jobs outstanding
//! at servants, completed-but-unwritten bundles, the contiguous prefix
//! at the write head, and the unassigned remainder (saturated to
//! `MANY` so the 16 384-pixel paper image stays finite). Servants are
//! collapsed into one credit counter — they are symmetric, any servant
//! with a credit can accept any job, and any outstanding job may
//! complete next, so per-servant credit splits do not change
//! reachability of this projection.
//!
//! The abstraction is an **over-approximation** of the simulator: which
//! completed bundle bridges the contiguous prefix is chosen
//! nondeterministically (any extension up to the completed total),
//! which includes every real completion order. Two exact rules are kept
//! because the verdicts depend on them:
//!
//! * writes are *urgent*: whenever the contiguous prefix reaches the
//!   write chunk the master writes it in the same step, exactly like
//!   [`raysim`]'s master checking `write_ready` after every receive;
//! * with no job outstanding, everything in flight is contiguous (there
//!   is no gap a missing bundle could leave), so the state is forced to
//!   full bridge — this is what makes the eager write-back fallback
//!   fire and is why the implemented protocol cannot wedge in eager
//!   mode.
//!
//! Explored exhaustively (BFS with parent pointers), the model yields
//! machine-checked verdicts: deadlock reachability with a counterexample
//! path, the peak number of concurrently outstanding jobs (the V3
//! window collapse, with a witness path), and credit conservation as an
//! invariant over *all* reachable states. Transition labels are encoded
//! as compact actions and rendered to prose only when a path is
//! reconstructed — the exploration itself allocates nothing per edge
//! beyond the hash insert.
//!
//! # Partial-order reduction
//!
//! [`FlowModel::explore`] applies a **send-priority persistent set
//! with urgent-send closure**: in any state where the master can send,
//! only the send transitions are expanded (completion branches are
//! deferred until no send is enabled), and chains of forced sends are
//! folded into the incoming edge the way the urgent writes already are
//! — only *send-closed* states are stored, each edge carrying the
//! count of sends folded into it so witness paths stay replayable.
//! This is sound for every verdict the model reports: sends and
//! completions never disable each other (a completion frees queue
//! space and returns a credit; a send consumes them and every
//! completion choice available before the send is still available
//! after it), a send-enabled state always has a successor (never a
//! deadlock), peak concurrency is reached at send-closed states (out
//! only grows along a send chain), and the credit/capacity invariants
//! are enabledness-guarded on the folded steps. The interleaving
//! blowup of send×complete orders collapses ~6× at paper scale.
//! [`FlowModel::explore_full`] keeps the unreduced exploration; the
//! `dpor_soundness` differential proptest pins the two to identical
//! verdicts on randomized small shapes.
//!
//! # Write ranges
//!
//! A completion whose bridge reaches the write chunk is written in the
//! same step, so every bridge length `c ≥ chunk_b` lands on the state
//! `(out − 1, done + 1 − c, 0, remaining)`. From one state these form a
//! *write range*: the leftovers `k` from some highest value down to 0,
//! all in the `(out − 1, remaining)` family. Neighbouring states share
//! most of their write ranges, and the send-closure of every member was
//! pushed the first time any state emitted it. So [`FlowModel::explore`]
//! keeps one *write mark* per family — how many of the lowest `k` have
//! been expanded — and emits only the members above it, in the same
//! order, then one sentinel for the rest.
//!
//! # Send-chain marks
//!
//! The send-closure of a saturated state walks its chain of forced
//! sends: each send-enabled state on it adds the leaf of its tail branch
//! and passes on to itself plus one job, so the closure of every state on
//! the chain is the stretch of the walk from that state on. Once a walk
//! has passed through a state, any later walk that reaches it would emit
//! that stretch again. So [`FlowModel::explore`] keeps a *chain mark* on
//! each saturated, send-enabled state a walk passes through, and a walk
//! that reaches a marked state stops there with one sentinel. Likewise a
//! completion that leaves no job outstanding forces every bridge length
//! to the same state, so only the first bridge is expanded and one
//! sentinel stands for the others.
//!
//! # Sentinels
//!
//! Each sentinel stands for a run of successors emitted before it, by an
//! earlier expansion or earlier in the same list, and examined by the
//! exploration, so every one is a seen state. The exploration counts a
//! sentinel at its budget check, as it would count the first of the
//! run, and never stores it; a list holding one is not empty, as the run
//! was not. The node list, the budget flag, every verdict field and
//! every witness path are therefore those of the enumeration that emits
//! every successor, and the exactness tests below pin the two together.
//! At paper scale the entries examined per stored state on V1/V2 fall
//! from ~266 without marks to ~13 with write marks and ~5 with both:
//! ~4 successor states and ~1 sentinel.
//!
//! State counters are 16-bit. Each is bounded by the queue capacity in
//! bundles, so a shape whose queue holds more than `u16::MAX` bundles is
//! not explored rather than wrapped; the pre-flight names the reason and
//! leaves the flow claims to the structural layer.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The flow model's parameters, all in bundle units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowModel {
    /// Total window credits: servants × window.
    pub credits: u32,
    /// Pixel-queue capacity in bundles (`⌊capacity / bundle⌋`).
    pub capacity_b: u32,
    /// Write chunk in bundles (`⌈write_chunk / bundle⌉`).
    pub chunk_b: u32,
    /// Eager write-back: the master flushes a partial chunk when
    /// nothing is outstanding and nothing is assignable (the
    /// implemented master's fallback). `false` models strict chunked
    /// write-back.
    pub eager: bool,
}

/// Sentinel for "more bundles than the protocol can distinguish".
const MANY: u16 = u16::MAX;

/// One abstract state (bundle units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    /// Jobs outstanding at servants (each holds one credit).
    out: u16,
    /// Completed-but-unwritten bundles in the queue.
    done: u16,
    /// Contiguous completed bundles at the write head (`<= done`).
    contig: u16,
    /// Unassigned bundles, saturated to [`MANY`].
    remaining: u16,
}

/// A transition, encoded compactly; rendered to prose only for
/// counterexample paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Initial state marker (never rendered).
    Init,
    /// Master sends a job; the remainder stays saturated.
    SendMany,
    /// Master sends a job and the remainder collapses to the concrete
    /// tail (this was one of the image's last bundles).
    SendTail(u16),
    /// Master sends a job with the given concrete bundle count left
    /// after it.
    SendCount(u16),
    /// A servant completes a job that does not touch the write head.
    CompleteAway,
    /// A servant completes a job; the contiguous stretch extends to
    /// the given length (bridging earlier completions); any full
    /// chunks are written immediately.
    CompleteBridge(u16),
    /// Not a transition: tags the [`SKIPPED`] sentinel.
    Skip,
}

/// One successor-list entry: the state, the action reaching it, and the
/// urgent sends folded into the edge.
type Succ = (State, Action, u16);

/// The entry [`FlowModel::explore`] pushes in place of a run of
/// successors that are all seen states: counted at the budget check,
/// never stored (see the module docs, "Sentinels").
const SKIPPED: Succ = (
    State {
        out: 0,
        done: 0,
        contig: 0,
        remaining: 0,
    },
    Action::Skip,
    0,
);

impl Action {
    fn render(self) -> String {
        match self {
            Action::Init | Action::Skip => String::new(),
            Action::SendMany => "master sends a job (plenty of pixels left)".to_owned(),
            Action::SendTail(n) => {
                format!("master sends a job ({n} bundle(s) of the image left)")
            }
            Action::SendCount(n) => format!("master sends a job ({n} bundle(s) left)"),
            Action::CompleteAway => "a servant completes a job away from the write head".to_owned(),
            Action::CompleteBridge(c) => format!(
                "a servant completes a job; the contiguous stretch reaches {c} bundle(s) \
                 and the master writes every full chunk"
            ),
        }
    }
}

/// What exploring the flow model concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowVerdict {
    /// Reachable states explored.
    pub states: usize,
    /// `true` when the exploration hit the state budget; universal
    /// claims (deadlock freedom, peak concurrency) are then partial.
    pub bounded: bool,
    /// A transition path to a deadlocked state, if one is reachable.
    pub deadlock: Option<Vec<String>>,
    /// Most jobs ever concurrently outstanding, over all explored
    /// states.
    pub max_outstanding: u32,
    /// A transition path witnessing `max_outstanding`.
    pub peak_witness: Vec<String>,
    /// `true` when no reachable state held more jobs than credits
    /// (no credit is ever minted) — the credit-conservation invariant.
    pub credits_conserved: bool,
    /// `true` when `outstanding + completed <= capacity_b` held in
    /// every explored state.
    pub capacity_respected: bool,
    /// `true` when a completed state (all work written) was reached.
    pub completion_reachable: bool,
}

/// Why a shape was not explored: its pixel queue holds more bundles
/// than the 16-bit state counters can count. The structural layer's
/// proofs do not depend on the size, so callers leave the flow claims
/// to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueueTooWide {
    /// The shape's queue capacity in bundles.
    pub(crate) capacity_b: u32,
}

impl fmt::Display for QueueTooWide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the pixel queue holds {} bundles, more than the flow model's 16-bit \
             state counters track ({})",
            self.capacity_b,
            u16::MAX
        )
    }
}

/// Membership set for explored states.
///
/// The state fields are tightly bounded (`out ≤ credits`, `done ≤
/// capacity_b`, `contig < chunk_b` after normalization, `remaining ∈
/// {MANY, 0..=tail}`), so for every realistic shape the whole space
/// indexes into a dense bitset — no hashing on the hot path, which is
/// traversed once per examined successor (~0.4 M for V1/V2's 100 000
/// states). Shapes whose product overflows the cap fall back to a hash
/// set with a cheap multiplicative hasher. The chain marks are the same
/// set over the saturated states alone.
enum Seen {
    Dense {
        bits: Vec<u64>,
        done_dim: usize,
        contig_dim: usize,
        rem_dim: usize,
    },
    Sparse(HashSet<u64, BuildHasherDefault<FxHasher>>),
}

/// Largest dense table allowed, in bits (16 MiB of memory).
const DENSE_CAP: usize = 1 << 27;

impl Seen {
    /// An empty set over every state of `m`.
    fn new(m: &FlowModel) -> Seen {
        Seen::with_rem_dim(m, usize::from(m.tail()) + 2)
    }

    /// An empty set over the saturated states of `m` (remainder
    /// [`MANY`]) only: the chain marks.
    fn saturated(m: &FlowModel) -> Seen {
        Seen::with_rem_dim(m, 1)
    }

    fn with_rem_dim(m: &FlowModel, rem_dim: usize) -> Seen {
        let out_dim = m.credits.min(m.capacity_b) as usize + 1;
        let done_dim = m.capacity_b as usize + 1;
        let contig_dim = (m.chunk_b as usize).max(1);
        let size = out_dim
            .checked_mul(done_dim)
            .and_then(|s| s.checked_mul(contig_dim))
            .and_then(|s| s.checked_mul(rem_dim));
        match size {
            Some(size) if size <= DENSE_CAP => Seen::Dense {
                bits: vec![0; size.div_ceil(64)],
                done_dim,
                contig_dim,
                rem_dim,
            },
            _ => Seen::Sparse(HashSet::default()),
        }
    }

    /// Marks `s` as seen; returns `true` when it was new.
    fn insert(&mut self, s: State) -> bool {
        match self {
            Seen::Dense {
                bits,
                done_dim,
                contig_dim,
                rem_dim,
            } => {
                debug_assert!(rem_index(s.remaining) < *rem_dim, "{s:?} outside the set");
                let idx = ((usize::from(s.out) * *done_dim + usize::from(s.done)) * *contig_dim
                    + usize::from(s.contig))
                    * *rem_dim
                    + rem_index(s.remaining);
                let (word, bit) = (idx / 64, 1u64 << (idx % 64));
                let new = bits[word] & bit == 0;
                bits[word] |= bit;
                new
            }
            Seen::Sparse(set) => {
                let key = (u64::from(s.out) << 48)
                    | (u64::from(s.done) << 32)
                    | (u64::from(s.contig) << 16)
                    | u64::from(s.remaining);
                set.insert(key)
            }
        }
    }
}

/// Dense index of a remainder: [`MANY`] first, then `0..=tail`.
fn rem_index(remaining: u16) -> usize {
    if remaining == MANY {
        0
    } else {
        usize::from(remaining) + 1
    }
}

/// The write marks: for each `(out, remaining)` family, how many of the
/// lowest leftovers `k` have had the send-closure of `(out, k, 0,
/// remaining)` emitted (see the module docs). Dense while the table
/// fits in [`DENSE_CAP`] bits, like [`Seen`], hashed beyond.
enum WriteMarks {
    Dense { marks: Vec<u16>, rem_dim: usize },
    Sparse(HashMap<u32, u16, BuildHasherDefault<FxHasher>>),
}

impl WriteMarks {
    fn new(m: &FlowModel) -> WriteMarks {
        let out_dim = m.credits.min(m.capacity_b) as usize + 1;
        let rem_dim = usize::from(m.tail()) + 2;
        match out_dim.checked_mul(rem_dim) {
            Some(size) if size <= DENSE_CAP / 16 => WriteMarks::Dense {
                marks: vec![0; size],
                rem_dim,
            },
            _ => WriteMarks::Sparse(HashMap::default()),
        }
    }

    /// Marks leftovers `0..=hi` of the family expanded; returns how
    /// many of the lowest were expanded before.
    fn raise(&mut self, out: u16, remaining: u16, hi: u16) -> u16 {
        let mark = match self {
            WriteMarks::Dense { marks, rem_dim } => {
                &mut marks[usize::from(out) * *rem_dim + rem_index(remaining)]
            }
            WriteMarks::Sparse(map) => map
                .entry((u32::from(out) << 16) | u32::from(remaining))
                .or_insert(0),
        };
        let before = *mark;
        *mark = before.max(hi + 1);
        before
    }
}

/// What [`FlowModel::explore`] remembers between expansions so that it
/// emits each send-closure leaf once (see the module docs).
struct Marks {
    writes: WriteMarks,
    /// Saturated, send-enabled states some closure walk has passed
    /// through.
    chains: Seen,
}

impl Marks {
    fn new(m: &FlowModel) -> Marks {
        Marks {
            writes: WriteMarks::new(m),
            chains: Seen::saturated(m),
        }
    }
}

/// How [`FlowModel::successors`] expands a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expansion {
    /// Every enabled transition, each successor stored as reached
    /// ([`FlowModel::explore_full`]).
    Full,
    /// The send-priority persistent set, every successor closed under
    /// forced sends, each run of successors an earlier step emitted
    /// folded into one [`SKIPPED`] sentinel ([`FlowModel::explore`]).
    Reduced,
    /// [`Expansion::Reduced`] as it was before write and chain marks:
    /// every successor emitted, each closure recursive. The oracle the
    /// exactness tests hold [`FlowModel::explore`] to.
    #[cfg(test)]
    ReducedNaive,
}

/// FxHash-style multiplicative hasher for the sparse fallbacks — the
/// derived `SipHash` dominates exploration time on debug builds. A
/// multiply carries key bits only upward, and the hash table buckets by
/// the low bits, so keys differing only in a high field (outstanding
/// jobs) would share a bucket; the splitmix64 finalizer in `finish`
/// spreads every bit.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl FlowModel {
    /// Builds the model from protocol constants in **pixel** units.
    pub fn from_protocol(
        servants: u32,
        window: u32,
        bundle: u32,
        capacity: u32,
        chunk: u32,
        eager: bool,
    ) -> FlowModel {
        let bundle = bundle.max(1);
        FlowModel {
            // Saturating: no state holds more jobs than queue slots, so
            // any credit total past the capacity explores the same.
            credits: servants.saturating_mul(window),
            capacity_b: (capacity / bundle).max(1),
            chunk_b: chunk.div_ceil(bundle).max(1),
            eager,
        }
    }

    /// Tail length (bundles) used when `MANY` collapses to a concrete
    /// remainder: just enough to exercise the endgame write-back.
    fn tail(&self) -> u16 {
        self.chunk_b.saturating_add(1).min(u32::from(MANY - 1)) as u16
    }

    fn in_flight(s: State) -> u32 {
        u32::from(s.out) + u32::from(s.done)
    }

    /// Bundles assignable right now: free queue slots, remainder
    /// permitting.
    fn assignable(&self, s: State) -> u32 {
        let free = self.capacity_b.saturating_sub(Self::in_flight(s));
        if s.remaining == MANY {
            free
        } else {
            free.min(u32::from(s.remaining))
        }
    }

    /// Has every bundle been assigned, completed and written?
    fn is_complete(s: State) -> bool {
        s.remaining == 0 && s.out == 0 && s.done == 0
    }

    /// Applies the master's deterministic write-back to a state:
    /// chunk-triggered writes always; the eager fallback flush when
    /// nothing is outstanding and nothing is assignable.
    fn normalize(&self, mut s: State) -> State {
        loop {
            // With no job outstanding there is no gap: everything
            // completed is contiguous from the write head.
            if s.out == 0 {
                s.contig = s.done;
            }
            if u32::from(s.contig) >= self.chunk_b && s.contig > 0 {
                s.done -= s.contig;
                s.contig = 0;
                continue;
            }
            if self.eager && s.out == 0 && s.done > 0 && self.assignable(s) == 0 {
                // The implemented master's fallback: flush the partial
                // stretch rather than stall.
                s.done = 0;
                s.contig = 0;
                continue;
            }
            return s;
        }
    }

    /// Is a send enabled in `s`?
    fn can_send(&self, s: State) -> bool {
        u32::from(s.out) < self.credits && self.assignable(s) > 0
    }

    /// Pushes the send-closure of `t`, reached via `action` with `burst`
    /// sends already folded into the edge: `t` itself when no send is
    /// enabled in it, else every send-closed state its urgent sends
    /// reach, a saturated send branching where the remainder may
    /// collapse to the concrete tail. Leaves come depth-first, the
    /// saturated branch first.
    ///
    /// A loop, not a recursion: a wide window folds thousands of sends
    /// into one edge. It walks the saturated chain forward, pushing each
    /// tail branch's leaf on the way and the chain's own leaf last, then
    /// reverses that stretch into depth-first order. It marks each
    /// saturated, send-enabled state it passes; on reaching one an
    /// earlier walk marked, it pushes [`SKIPPED`] for that state's
    /// closure instead of walking on.
    fn push_closed(
        &self,
        mut t: State,
        action: Action,
        mut burst: u16,
        chains: &mut Seen,
        next: &mut Vec<Succ>,
    ) {
        let first = next.len();
        let last = loop {
            if t.remaining != MANY || !self.can_send(t) {
                break self.close_counted(t, action, burst);
            }
            if !chains.insert(t) {
                break SKIPPED;
            }
            burst += 1;
            let mut u = t;
            u.out += 1;
            u.remaining = self.tail();
            next.push(self.close_counted(self.normalize(u), action, burst));
            t.out += 1;
            t = self.normalize(t);
        };
        next.push(last);
        next[first..].reverse();
    }

    /// Folds the urgent sends of a state whose remainder is concrete (or
    /// that cannot send): each takes one of the bundles left, so the
    /// closure is a single chain.
    fn close_counted(&self, mut t: State, action: Action, mut burst: u16) -> Succ {
        while self.can_send(t) {
            t.out += 1;
            t.remaining -= 1;
            t = self.normalize(t);
            burst += 1;
        }
        (t, action, burst)
    }

    /// Pushes `t`, reached via `action`, as a successor: closed under
    /// urgent sends unless the expansion is [`Expansion::Full`].
    fn push_successor(
        &self,
        t: State,
        action: Action,
        expansion: Expansion,
        marks: &mut Marks,
        next: &mut Vec<Succ>,
    ) {
        match expansion {
            Expansion::Full => next.push((t, action, 0)),
            Expansion::Reduced => self.push_closed(t, action, 0, &mut marks.chains, next),
            #[cfg(test)]
            Expansion::ReducedNaive => self.push_closed_recursive(t, action, 0, next),
        }
    }

    /// The recursive send-closure [`FlowModel::push_closed`] replaced:
    /// one frame per folded send, no marks. Kept for the exactness
    /// tests.
    #[cfg(test)]
    fn push_closed_recursive(&self, t: State, action: Action, burst: u16, next: &mut Vec<Succ>) {
        if !self.can_send(t) {
            next.push((t, action, burst));
            return;
        }
        let mut u = t;
        u.out += 1;
        if t.remaining == MANY {
            self.push_closed_recursive(self.normalize(u), action, burst + 1, next);
            u.remaining = self.tail();
        } else {
            u.remaining -= 1;
        }
        self.push_closed_recursive(self.normalize(u), action, burst + 1, next);
    }

    /// Writes all successor states with compact action codes into
    /// `next`, each edge tagged with the number of urgent sends folded
    /// into it. Unless the expansion is [`Expansion::Full`], states
    /// where a send is enabled expand only the send transitions (the
    /// persistent set) and every successor is closed under forced
    /// sends, so only send-closed states are ever stored.
    ///
    /// [`Expansion::Reduced`] also consults `marks` and pushes one
    /// [`SKIPPED`] in place of each run of successors an earlier step
    /// already pushed: a closure past a marked chain state, the write
    /// range below the family's write mark, and every bridge after the
    /// first when the completion leaves no job outstanding.
    fn successors(&self, s: State, expansion: Expansion, marks: &mut Marks, next: &mut Vec<Succ>) {
        next.clear();

        // Send: a credit and a queue slot carry one bundle out.
        if self.can_send(s) {
            let mut t = s;
            t.out += 1;
            if s.remaining == MANY {
                self.push_successor(self.normalize(t), Action::SendMany, expansion, marks, next);
                t.remaining = self.tail();
                let action = Action::SendTail(self.tail());
                self.push_successor(self.normalize(t), action, expansion, marks, next);
            } else {
                t.remaining -= 1;
                let action = Action::SendCount(t.remaining);
                self.push_successor(self.normalize(t), action, expansion, marks, next);
            }
            if expansion != Expansion::Full {
                // Send-priority persistent set: completions commute
                // with (and never disable) sends, so their expansion
                // waits until no send is enabled.
                return;
            }
        }

        // Complete: any outstanding job finishes; the master receives
        // the result and the credit returns. The completed bundle may
        // extend the contiguous prefix by any amount (bridging
        // previously completed bundles) or leave it untouched.
        if s.out > 0 {
            let out = s.out - 1;
            let done = s.done + 1;
            if out > 0 {
                let mut t = s;
                t.out = out;
                t.done = done;
                let t = self.normalize(t);
                self.push_successor(t, Action::CompleteAway, expansion, marks, next);
            }
            let mut last = done;
            if expansion == Expansion::Reduced {
                if out == 0 {
                    // With no job left the write-back forces every
                    // bridge to one state: the first pushes its
                    // closure, the rest repeat it.
                    last = s.contig + 1;
                } else {
                    // Bridges from `first_write` up are the write
                    // range: bridge `c` leaves `k = done − c`.
                    let first_write = u32::from(s.contig + 1).max(self.chunk_b);
                    if first_write <= u32::from(done) {
                        let hi = done - first_write as u16;
                        let expanded = marks.writes.raise(out, s.remaining, hi);
                        last = done - expanded.min(hi + 1);
                    }
                }
            }
            for contig in (s.contig + 1)..=last {
                let mut t = s;
                t.out = out;
                t.done = done;
                t.contig = contig;
                let t = self.normalize(t);
                self.push_successor(t, Action::CompleteBridge(contig), expansion, marks, next);
            }
            if last < done {
                next.push(SKIPPED);
            }
        }
    }

    /// Refuses a shape whose queue holds more bundles than the 16-bit
    /// state counters count.
    ///
    /// # Errors
    ///
    /// [`QueueTooWide`], naming the capacity.
    pub(crate) fn counters_fit(&self) -> Result<(), QueueTooWide> {
        if self.capacity_b > u32::from(u16::MAX) {
            Err(QueueTooWide {
                capacity_b: self.capacity_b,
            })
        } else {
            Ok(())
        }
    }

    /// Explores the state space with send-priority partial-order
    /// reduction (BFS), up to `max_states` states. Verdicts equal
    /// [`FlowModel::explore_full`]'s in a fraction of the states.
    ///
    /// A shape whose queue holds more than `u16::MAX` bundles is not
    /// explored: its verdict is bounded at 0 states, every universal
    /// claim partial.
    pub fn explore(&self, max_states: usize) -> FlowVerdict {
        self.explore_mode(max_states, Expansion::Reduced)
    }

    /// Explores every reachable state with no reduction — the
    /// reference exploration the differential tests compare against.
    pub fn explore_full(&self, max_states: usize) -> FlowVerdict {
        self.explore_mode(max_states, Expansion::Full)
    }

    fn explore_mode(&self, max_states: usize, expansion: Expansion) -> FlowVerdict {
        let mut verdict = FlowVerdict {
            states: 0,
            bounded: false,
            deadlock: None,
            max_outstanding: 0,
            peak_witness: Vec::new(),
            credits_conserved: true,
            capacity_respected: true,
            completion_reachable: false,
        };
        if self.counters_fit().is_err() {
            verdict.bounded = true;
            return verdict;
        }
        let initial = self.normalize(State {
            out: 0,
            done: 0,
            contig: 0,
            remaining: MANY,
        });
        let mut seen = Seen::new(self);
        let mut marks = Marks::new(self);
        // (state, parent index, action from the parent, sends folded
        // into the edge)
        let mut nodes: Vec<(State, usize, Action, u16)> =
            vec![(initial, usize::MAX, Action::Init, 0)];
        seen.insert(initial);

        let mut peak_at = 0usize;
        let mut succs: Vec<Succ> = Vec::new();

        let mut head = 0usize;
        while head < nodes.len() && !verdict.bounded {
            let (s, _, _, _) = nodes[head];

            // Mechanical invariants, checked in every reachable state:
            // no credit is ever minted (outstanding jobs never exceed
            // the window total) and the queue bound is never overrun.
            if u32::from(s.out) > self.credits {
                verdict.credits_conserved = false;
            }
            if Self::in_flight(s) > self.capacity_b {
                verdict.capacity_respected = false;
            }
            if u32::from(s.out) > verdict.max_outstanding {
                verdict.max_outstanding = u32::from(s.out);
                peak_at = head;
            }

            if Self::is_complete(s) {
                verdict.completion_reachable = true;
                head += 1;
                continue;
            }

            self.successors(s, expansion, &mut marks, &mut succs);
            if succs.is_empty() {
                if verdict.deadlock.is_none() {
                    verdict.deadlock = Some(path_to(&nodes, head));
                }
                head += 1;
                continue;
            }
            for &(t, action, burst) in &succs {
                if nodes.len() >= max_states {
                    verdict.bounded = true;
                    break;
                }
                // A sentinel counts at the check above, as the first
                // seen state of its run would, and is never stored.
                if action != Action::Skip && seen.insert(t) {
                    nodes.push((t, head, action, burst));
                }
            }
            head += 1;
        }

        verdict.states = nodes.len();
        verdict.peak_witness = path_to(&nodes, peak_at);
        verdict
    }
}

/// Reconstructs rendered transition labels from the initial state to
/// `target` via parent pointers. An edge with folded urgent sends
/// renders as its primary action plus one line for the send burst, so
/// a reduced-exploration witness replays the same schedule.
fn path_to(nodes: &[(State, usize, Action, u16)], target: usize) -> Vec<String> {
    let mut labels = Vec::new();
    let mut i = target;
    while i != 0 {
        let (child, parent, action, burst) = &nodes[i];
        if *burst > 0 {
            let left = if child.remaining == MANY {
                "plenty of pixels left".to_owned()
            } else {
                format!("{} bundle(s) left", child.remaining)
            };
            labels.push(format!(
                "the master immediately sends {burst} more job(s) without yielding ({left})"
            ));
        }
        labels.push(action.render());
        i = *parent;
    }
    labels.reverse();
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(credits: u32, capacity_b: u32, chunk_b: u32, eager: bool) -> FlowModel {
        FlowModel {
            credits,
            capacity_b,
            chunk_b,
            eager,
        }
    }

    /// The explorer before write and chain marks and the iterative
    /// closure.
    fn explore_naive(m: &FlowModel, max_states: usize) -> FlowVerdict {
        m.explore_mode(max_states, Expansion::ReducedNaive)
    }

    /// A ray-tracer rung of the scaling sweep at paper scale: V4 with
    /// `n − 1` servants, 32-ray bundles, a 64-pixel write chunk and the
    /// stock 16 384-pixel queue.
    fn ray_rung(n: u32) -> FlowModel {
        FlowModel::from_protocol(n - 1, 3, 32, 16_384, 64, true)
    }

    #[test]
    fn benchmarked_shapes_explore_their_pinned_state_counts() {
        // (shape, states at the pre-flight budget of 100 000, states at
        // the full budget of 2 000 000); a count equal to the budget
        // means the exploration stopped there.
        let v1 = FlowModel::from_protocol(15, 3, 1, 512, 4, true);
        let v3 = FlowModel::from_protocol(15, 3, 50, 768, 64, true);
        let v4 = FlowModel::from_protocol(15, 3, 100, 16_384, 128, true);
        let table = [
            ("V1/V2", v1, 100_000, 100_184),
            ("V3", v3, 343, 343),
            ("V4", v4, 13_947, 13_947),
            ("ray-n2", ray_rung(2), 7_157, 7_157),
            ("ray-n4", ray_rung(4), 13_229, 13_229),
            ("ray-n8", ray_rung(8), 25_157, 25_157),
            ("ray-n16", ray_rung(16), 48_149, 48_149),
            ("ray-n32", ray_rung(32), 90_677, 90_677),
            ("ray-n64", ray_rung(64), 100_000, 161_909),
        ];
        for (name, m, preflight, full) in table {
            for (budget, states) in [(100_000, preflight), (2_000_000, full)] {
                let v = m.explore(budget);
                assert_eq!(v.states, states, "{name} at budget {budget}");
                assert_eq!(v.bounded, states == budget, "{name} at budget {budget}");
            }
        }
    }

    /// The widest queue the 16-bit counters hold, with a window wide
    /// enough that its first closure folds 25 500 sends into one edge.
    /// Its states and chain marks overflow the dense tables.
    fn widest_queue() -> FlowModel {
        FlowModel::from_protocol(255, 100, 1, 65_535, 4, true)
    }

    /// Holds [`FlowModel::explore`] to the naive enumeration, whole
    /// verdicts and witness paths included. The naive side runs on a
    /// thread whose stack holds its recursion: one frame per folded
    /// send.
    fn assert_matches_naive(m: FlowModel, budget: usize) {
        let naive = std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || explore_naive(&m, budget))
            .expect("spawn the naive exploration")
            .join()
            .expect("naive exploration");
        assert_eq!(m.explore(budget), naive, "{m:?} at {budget}");
    }

    #[test]
    fn marks_match_the_naive_enumeration_on_pinned_shapes() {
        // V1/V2 and ray-n64 are cut by a small budget so the bounded case
        // runs at paper scale in every build; the pre-flight twin below
        // runs the pre-flight's budgets, the randomized twin small shapes.
        let v1 = FlowModel::from_protocol(15, 3, 1, 512, 4, true);
        let cases = [
            (
                FlowModel::from_protocol(15, 3, 50, 768, 64, true),
                2_000_000,
            ),
            (
                FlowModel::from_protocol(15, 3, 100, 16_384, 128, true),
                2_000_000,
            ),
            (ray_rung(2), 2_000_000),
            (v1, 5_000),
            (ray_rung(64), 5_000),
            (model(2, 2, 3, false), 100_000),
            (model(2, 4, 2, false), 100_000),
            (widest_queue(), 60_000),
        ];
        for (m, budget) in cases {
            assert_matches_naive(m, budget);
        }
        // The budget runs out on a sentinel. In the second stored state's
        // list, the completion away from the write head stores the 5th
        // state; the bridge then writes its one bundle and lands on the
        // first send's chain, already marked, so its closure is one
        // sentinel, examined at the budget.
        let m = model(2, 2, 1, false);
        let v = m.explore(5);
        assert!(v.bounded && v.states == 5, "{v:?}");
        assert_matches_naive(m, 5);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper scale: run with --release")]
    fn marks_match_the_naive_enumeration_on_preflight_shapes() {
        // Every shape the pre-flight explores, at the budgets it uses:
        // 100 000 per run, 2 000 000 for `analyze --deep`. The ray rungs
        // from n4 to n32 close below either budget.
        let v1 = FlowModel::from_protocol(15, 3, 1, 512, 4, true);
        let mut cases = vec![(v1, 100_000), (v1, 2_000_000)];
        cases.extend([4, 8, 16, 32].map(|n| (ray_rung(n), 2_000_000)));
        cases.extend([(ray_rung(64), 100_000), (ray_rung(64), 2_000_000)]);
        for (m, budget) in cases {
            assert_matches_naive(m, budget);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Write and chain marks and the iterative closure change what
        /// is examined, never what is found: the whole verdict equals the
        /// naive enumeration's under any budget, including budgets that
        /// run out right on a sentinel.
        #[test]
        fn write_marks_match_the_naive_enumeration(
            credits in 1u32..=12,
            capacity_b in 1u32..=40,
            chunk_b in 1u32..=9,
            eager in proptest::prelude::any::<bool>(),
            budget in 1usize..=300,
        ) {
            let m = model(credits, capacity_b, chunk_b, eager);
            proptest::prop_assert_eq!(m.explore(budget), explore_naive(&m, budget));
            proptest::prop_assert_eq!(m.explore(1_000_000), explore_naive(&m, 1_000_000));
        }
    }

    #[test]
    fn a_queue_too_wide_for_the_counters_is_not_explored() {
        let m = FlowModel::from_protocol(255, 100, 1, 65_536, 4, true);
        assert_eq!(m.counters_fit(), Err(QueueTooWide { capacity_b: 65_536 }));
        let v = m.explore(100_000);
        assert!(v.bounded && v.states == 0, "{v:?}");
        assert!(m
            .counters_fit()
            .unwrap_err()
            .to_string()
            .contains("65536 bundles"));
        // The widest queue the counters hold explores, its first closure
        // folding every one of the 25 500 credits into one edge.
        let widest = widest_queue();
        assert_eq!(widest.counters_fit(), Ok(()));
        let v = widest.explore(30_000);
        assert!(v.bounded);
        assert_eq!(v.max_outstanding, 25_500);
    }

    #[test]
    fn eager_models_are_deadlock_free() {
        for (credits, cap, chunk) in [(45, 15, 2), (45, 163, 2), (4, 16, 1), (2, 2, 3)] {
            let v = model(credits, cap, chunk, true).explore(2_000_000);
            assert!(!v.bounded, "{credits}/{cap}/{chunk} should close");
            assert!(
                v.deadlock.is_none(),
                "eager {credits}/{cap}/{chunk}: {:?}",
                v.deadlock
            );
            assert!(v.credits_conserved);
            assert!(v.capacity_respected);
            assert!(v.completion_reachable);
        }
    }

    #[test]
    fn v3_shape_collapses_the_window() {
        // Paper V3 in bundle units: 45 credits but only ⌊768/50⌋ = 15
        // queue slots.
        let v = FlowModel::from_protocol(15, 3, 50, 768, 64, true).explore(2_000_000);
        assert!(!v.bounded);
        assert_eq!(v.max_outstanding, 15);
        assert!(!v.peak_witness.is_empty());
        assert!(v.deadlock.is_none());
    }

    #[test]
    fn v4_shape_reaches_full_concurrency() {
        // Paper V4: 45 credits, ⌊16384/100⌋ = 163 slots.
        let v = FlowModel::from_protocol(15, 3, 100, 16_384, 128, true).explore(2_000_000);
        assert!(!v.bounded);
        assert_eq!(v.max_outstanding, 45);
        assert!(v.deadlock.is_none());
        assert!(v.credits_conserved);
        assert!(v.completion_reachable);
    }

    #[test]
    fn strict_chunk_larger_than_queue_deadlocks() {
        // chunk_b > capacity_b: the contiguous stretch can never reach
        // the chunk, so strict write-back wedges.
        let v = model(2, 2, 3, false).explore(100_000);
        assert!(!v.bounded);
        let path = v.deadlock.expect("must deadlock");
        assert!(!path.is_empty());
        assert!(path.iter().any(|l| l.contains("sends a job")), "{path:?}");
    }

    #[test]
    fn strict_aligned_config_can_still_wedge_on_the_tail() {
        // Even with chunk_b <= capacity_b a write can overshoot the
        // chunk boundary and leave a short tail: deadlock is reachable
        // (though not inevitable) under strict write-back.
        let v = model(2, 4, 2, false).explore(200_000);
        assert!(!v.bounded);
        assert!(v.completion_reachable);
        assert!(v.deadlock.is_some());
    }

    #[test]
    fn budget_bounds_the_exploration() {
        let v = model(45, 512, 4, true).explore(1_000);
        assert!(v.bounded);
        assert!(v.states <= 1_001);
    }

    #[test]
    fn v1_paper_scale_closes_within_the_full_budget() {
        let v = FlowModel::from_protocol(15, 3, 1, 512, 4, true).explore(2_000_000);
        assert!(!v.bounded, "V1 should close: {} states", v.states);
        assert!(v.deadlock.is_none());
        assert_eq!(v.max_outstanding, 45);
    }

    #[test]
    fn v1_reduction_beats_the_five_x_target() {
        // The unreduced V1/V2 exploration takes 615 535 states; the
        // send-priority reduction must close the same space in at most
        // a fifth of that with the verdict intact.
        let v = FlowModel::from_protocol(15, 3, 1, 512, 4, true).explore(2_000_000);
        assert!(!v.bounded);
        assert!(
            v.states <= 123_000,
            "reduction regressed: {} states",
            v.states
        );
    }

    #[test]
    fn reduction_matches_full_exploration_on_pinned_shapes() {
        // Paper shapes plus the strict write-back wedges: the reduced
        // and unreduced explorations must agree on every verdict field
        // (the randomized twin of this check lives in the
        // `dpor_soundness` proptest suite).
        let shapes = [
            FlowModel::from_protocol(15, 3, 50, 768, 64, true),
            FlowModel::from_protocol(15, 3, 100, 16_384, 128, true),
            model(2, 2, 3, false),
            model(2, 4, 2, false),
            model(4, 16, 1, true),
        ];
        for m in shapes {
            let r = m.explore(2_000_000);
            let f = m.explore_full(2_000_000);
            assert!(!r.bounded && !f.bounded, "{m:?}");
            assert_eq!(r.deadlock.is_some(), f.deadlock.is_some(), "{m:?}");
            assert_eq!(r.max_outstanding, f.max_outstanding, "{m:?}");
            assert_eq!(r.credits_conserved, f.credits_conserved, "{m:?}");
            assert_eq!(r.capacity_respected, f.capacity_respected, "{m:?}");
            assert_eq!(r.completion_reachable, f.completion_reachable, "{m:?}");
            assert!(r.states <= f.states, "{m:?}");
        }
    }
}
