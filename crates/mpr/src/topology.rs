//! Pluggable reduction topologies and precomputed per-rank schedules.
//!
//! The paper demonstrates application bypass on exactly one communication
//! structure — MPICH's binomial tree ([`crate::tree`]) — but nothing in the
//! bypass protocol depends on that shape: a reduction instance only needs to
//! know *which children to wait for* and *where to forward the partial
//! result*. This module makes that explicit. A [`TopologyKind`] names a tree
//! family; [`TopoSchedule`] is the precomputed per-rank view (parent, ordered
//! children, depth tags) the collective state machines step against, so the
//! same reduce/bcast/allreduce code runs over any tree shape.
//!
//! Schedules are immutable once built and cached per `(root, size)` inside
//! each engine ([`ScheduleCache`]), killing the per-instance `Vec` allocation
//! the old `tree::children` call paid on the reduction hot path.
//!
//! The binomial schedule reproduces `crate::tree` exactly — same child
//! order (increasing mask), same parent, same depth — so with the default
//! `TopologyKind::Binomial` every packet, charge, and figure byte is
//! identical to the pre-schedule code.

use crate::tree;
use crate::types::Rank;
use abr_des::SmallMap;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// A tree family for reduction/broadcast collectives.
///
/// Selected process-wide via the `ABR_TOPO` environment knob (see
/// [`TopologyKind::from_env`]); defaults to [`TopologyKind::Binomial`],
/// which is bit-identical to the MPICH mask loop the paper models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// MPICH's binomial tree (the paper's Fig. 1): relative rank `r` sends
    /// to `r - lsb(r)`; children arrive in increasing-mask order.
    #[default]
    Binomial,
    /// K-nomial tree of radix `k >= 2`: the base-`k` generalization of the
    /// binomial tree (which is exactly `Knomial(2)`). Higher radix means a
    /// shallower tree with more children per internal node.
    Knomial(u32),
    /// Chain (pipeline): relative rank `r` receives from `r + 1` and sends
    /// to `r - 1`. Maximum depth, minimum fan-in — the shape that rewards
    /// bypass most under skew because every rank is an internal node.
    Chain,
    /// Direction-reversed chain: relative rank `r` receives from `r - 1`
    /// and sends to `r + 1` (mod `size`), so data flows *up* the rank
    /// order instead of down. Exists for Träff's dual-root
    /// doubly-pipelined allreduce (PAPERS.md), whose second pipeline must
    /// traverse the physical chain in the opposite direction so the two
    /// halves never contend for the same link at the same step. Note
    /// `Chain` rooted at `size - 1` is *not* this shape — the relative
    /// rotation wraps, producing another downward chain.
    ChainRev,
    /// Flat (star): every non-root sends directly to the root. Minimum
    /// depth, maximum fan-in; no internal nodes, so bypass has nothing to
    /// optimize (the paper's 2-node observation taken to the limit).
    Flat,
    /// Bine ("binary negabinary") tree, after De Sensi et al. (PAPERS.md):
    /// relative rank `r` sends to `r - t` (mod `size`) where `t` is the
    /// lowest nonzero term of `r`'s canonical base-(-2) expansion. Edges
    /// span distances `±2^j` symmetrically around each subtree root, which
    /// halves the worst-case physical distance of the binomial tree's
    /// one-sided `+2^j` edges on locality-sensitive fabrics. Ranks whose
    /// negabinary edge would self-loop or cycle (possible at
    /// non-power-of-two sizes) are grafted onto their binomial parent, so
    /// the result is always a spanning tree.
    Bine,
    /// Placement-aware locality-greedy tree: ranks are grouped by the
    /// node/pod they land on (mirroring `abr_fabric`'s placement maps) and
    /// reduced hierarchically — a binomial tree among the ranks of each
    /// node, then among node leaders of each pod, then among pod leaders —
    /// so only `num_nodes - 1` edges cross the fabric and only
    /// `num_pods - 1` of those leave a pod.
    Locality {
        /// Ranks packed per node (matches `FabricSpec::ranks_per_node`).
        ranks_per_node: u32,
        /// Nodes grouped per pod (matches `FabricSpec::nodes_per_pod()`).
        nodes_per_pod: u32,
        /// Cyclic (round-robin) rank placement when true, blocked when
        /// false — must match the fabric's `PlacementPolicy` for the
        /// locality reasoning to hold.
        cyclic: bool,
    },
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::Binomial => write!(f, "binomial"),
            TopologyKind::Knomial(k) => write!(f, "knomial{k}"),
            TopologyKind::Chain => write!(f, "chain"),
            TopologyKind::ChainRev => write!(f, "chainrev"),
            TopologyKind::Flat => write!(f, "flat"),
            TopologyKind::Bine => write!(f, "bine"),
            TopologyKind::Locality {
                ranks_per_node,
                nodes_per_pod,
                cyclic,
            } => write!(
                f,
                "locality{ranks_per_node}x{nodes_per_pod}:{}",
                if *cyclic { "cyclic" } else { "blocked" }
            ),
        }
    }
}

impl TopologyKind {
    /// Parse an `ABR_TOPO` value: `binomial`, `knomial<k>` (k >= 2),
    /// `chain`, `chainrev`, `flat`, `bine`, or
    /// `locality[<R>x<P>][:cyclic|:blocked]`
    /// (defaults `locality4x16:cyclic`, matching `abr_fabric`'s default
    /// fat-tree shape). Errors name the variable per the fail-fast
    /// contract of [`abr_trace::parse_env`].
    ///
    /// # Examples
    ///
    /// ```
    /// use abr_mpr::topology::TopologyKind;
    ///
    /// assert_eq!(TopologyKind::parse("binomial"), Ok(TopologyKind::Binomial));
    /// assert_eq!(TopologyKind::parse("knomial4"), Ok(TopologyKind::Knomial(4)));
    /// assert_eq!(TopologyKind::parse("bine"), Ok(TopologyKind::Bine));
    /// assert_eq!(
    ///     TopologyKind::parse("locality4x16:cyclic"),
    ///     Ok(TopologyKind::Locality { ranks_per_node: 4, nodes_per_pod: 16, cyclic: true })
    /// );
    /// assert!(TopologyKind::parse("knomial1").unwrap_err().contains("ABR_TOPO"));
    /// assert!(TopologyKind::parse("ring").unwrap_err().contains("ABR_TOPO"));
    /// ```
    pub fn parse(raw: &str) -> Result<TopologyKind, String> {
        let raw = raw.trim();
        match raw {
            "binomial" => Ok(TopologyKind::Binomial),
            "chain" => Ok(TopologyKind::Chain),
            "chainrev" => Ok(TopologyKind::ChainRev),
            "flat" => Ok(TopologyKind::Flat),
            "bine" => Ok(TopologyKind::Bine),
            _ => {
                if let Some(k) = raw.strip_prefix("knomial") {
                    let k: u32 = k.parse().map_err(|_| {
                        format!("ABR_TOPO: knomial needs a numeric radix, got {raw:?}")
                    })?;
                    if k < 2 {
                        return Err(format!("ABR_TOPO: knomial radix must be >= 2, got {k}"));
                    }
                    Ok(TopologyKind::Knomial(k))
                } else if let Some(rest) = raw.strip_prefix("locality") {
                    Self::parse_locality(rest)
                } else {
                    Err(format!(
                        "ABR_TOPO: unknown topology {raw:?} (expected binomial, knomial<k>, \
                         chain, chainrev, flat, bine, or locality[<R>x<P>][:cyclic|:blocked])"
                    ))
                }
            }
        }
    }

    /// Parse the suffix of a `locality...` topology spec (everything after
    /// the `locality` prefix).
    fn parse_locality(rest: &str) -> Result<TopologyKind, String> {
        let (shape, cyclic) = match rest.split_once(':') {
            None => (rest, true),
            Some((s, "cyclic")) => (s, true),
            Some((s, "blocked")) => (s, false),
            Some((_, p)) => {
                return Err(format!(
                    "ABR_TOPO: locality placement suffix must be 'cyclic' or 'blocked', got {p:?}"
                ))
            }
        };
        let (ranks_per_node, nodes_per_pod) = if shape.is_empty() {
            (4, 16)
        } else {
            let (r, p) = shape.split_once('x').ok_or_else(|| {
                format!("ABR_TOPO: locality shape must look like '4x16', got {shape:?}")
            })?;
            let r: u32 = r.parse().map_err(|_| {
                format!("ABR_TOPO: locality ranks-per-node must be a number, got {r:?}")
            })?;
            let p: u32 = p.parse().map_err(|_| {
                format!("ABR_TOPO: locality nodes-per-pod must be a number, got {p:?}")
            })?;
            if r == 0 || p == 0 {
                return Err(format!(
                    "ABR_TOPO: locality shape terms must be >= 1, got {r}x{p}"
                ));
            }
            (r, p)
        };
        Ok(TopologyKind::Locality {
            ranks_per_node,
            nodes_per_pod,
            cyclic,
        })
    }

    /// Read `ABR_TOPO` from the environment; `None` when unset, panics
    /// (naming the variable) on an invalid value.
    pub fn from_env() -> Option<TopologyKind> {
        abr_trace::parse_env("ABR_TOPO", TopologyKind::parse)
    }

    /// [`TopologyKind::from_env`] with the binomial default applied — the
    /// process-wide topology every driver and figure uses unless a spec
    /// overrides it explicitly.
    pub fn from_env_or_default() -> TopologyKind {
        TopologyKind::from_env().unwrap_or_default()
    }

    /// Build the schedule for a `size`-rank communicator rooted at `root`.
    ///
    /// Prefer [`ScheduleCache::get`] on hot paths; this always allocates.
    pub fn schedule(self, root: Rank, size: u32) -> TopoSchedule {
        TopoSchedule::build(self, root, size)
    }

    /// Children of relative rank `rel`, pushed onto `out` in the order the
    /// blocking implementation waits on them (nearest subtree first).
    fn children_rel(self, rel: u32, size: u32, out: &mut Vec<u32>) {
        match self {
            TopologyKind::Binomial => {
                let mut mask = 1u32;
                while mask < size {
                    if rel & mask != 0 {
                        break;
                    }
                    let child = rel | mask;
                    if child < size {
                        out.push(child);
                    }
                    mask <<= 1;
                }
            }
            TopologyKind::Knomial(k) => {
                // Level i exists while rel's base-k digits 0..=i are all
                // zero; its children are rel + j*k^i for j in 1..k. At
                // k = 2 this is exactly the binomial mask loop.
                let k = k as u64;
                let mut step = 1u64; // k^i
                loop {
                    if !(rel as u64).is_multiple_of(step * k) {
                        break;
                    }
                    for j in 1..k {
                        let child = rel as u64 + j * step;
                        if child < size as u64 {
                            out.push(child as u32);
                        }
                    }
                    if step >= size as u64 {
                        break;
                    }
                    step *= k;
                }
            }
            TopologyKind::Chain => {
                if rel + 1 < size {
                    out.push(rel + 1);
                }
            }
            TopologyKind::ChainRev => {
                // Mirror of Chain in relative space: the root adopts the
                // deepest relative rank, every other rank adopts its
                // predecessor, and rel 1 is the single leaf. Rooted at
                // `size - 1` this lays data flow along the physical chain
                // 0 -> 1 -> ... -> size-1, the reverse of Chain's.
                if rel == 0 {
                    if size > 1 {
                        out.push(size - 1);
                    }
                } else if rel >= 2 {
                    out.push(rel - 1);
                }
            }
            TopologyKind::Flat => {
                if rel == 0 {
                    out.extend(1..size);
                }
            }
            TopologyKind::Bine | TopologyKind::Locality { .. } => {
                unreachable!("whole-tree kinds are built via children_lists")
            }
        }
    }

    /// Whole-tree child lists (indexed by relative rank) for the kinds
    /// whose parent rule cannot be evaluated per-rank in isolation;
    /// `None` for the per-rank families handled by `children_rel`.
    fn children_lists(self, size: u32) -> Option<Vec<Vec<u32>>> {
        match self {
            TopologyKind::Bine => Some(bine_children(size)),
            TopologyKind::Locality {
                ranks_per_node,
                nodes_per_pod,
                cyclic,
            } => Some(locality_children(
                size,
                ranks_per_node,
                nodes_per_pod,
                cyclic,
            )),
            _ => None,
        }
    }
}

/// The lowest nonzero term of `r`'s canonical base-(-2) expansion
/// (`r > 0`): scan negabinary digits from the least significant end and
/// return `(-2)^j` for the first nonzero digit.
fn lowest_negabinary_term(r: u32) -> i64 {
    let mut val = i64::from(r);
    let mut place: i64 = 1; // (-2)^j
    loop {
        debug_assert_ne!(val, 0, "r > 0 has a nonzero negabinary digit");
        if val.rem_euclid(2) != 0 {
            return place;
        }
        val /= -2;
        place *= -2;
    }
}

/// Bine tree over relative ranks: rank `r` parents onto
/// `r - lowest_negabinary_term(r)` mod `size`. The rule yields a valid
/// spanning tree at power-of-two sizes; at arbitrary sizes a few ranks
/// can self-loop or form cycles after the mod, so any rank BFS cannot
/// reach from 0 is grafted onto its binomial parent (`r - lsb(r)`,
/// strictly smaller, so grafting always terminates at 0). Children are
/// listed nearest-edge-first (by `|term|`, matching the binomial
/// wait-order convention), ties by rank.
fn bine_children(size: u32) -> Vec<Vec<u32>> {
    let n = size as usize;
    // (parent, |edge distance|) candidate per rank; None = self-loop.
    let mut cand: Vec<Option<(u32, u64)>> = vec![None; n];
    for r in 1..size {
        let term = lowest_negabinary_term(r);
        let p = (i64::from(r) - term).rem_euclid(i64::from(size)) as u32;
        if p != r {
            cand[r as usize] = Some((p, term.unsigned_abs()));
        }
    }
    // Reachability from rank 0 over the candidate edges.
    let mut cand_children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for r in 1..size {
        if let Some((p, _)) = cand[r as usize] {
            cand_children[p as usize].push(r);
        }
    }
    let mut reached = vec![false; n];
    reached[0] = true;
    let mut frontier = vec![0u32];
    while let Some(r) = frontier.pop() {
        for &c in &cand_children[r as usize] {
            if !reached[c as usize] {
                reached[c as usize] = true;
                frontier.push(c);
            }
        }
    }
    // Final parent of each rank: the bine candidate if it connects to the
    // root's component, the binomial parent otherwise.
    let mut edges: Vec<(u32, u64)> = vec![(u32::MAX, 0); n]; // (parent, weight)
    for r in 1..size {
        edges[r as usize] = match cand[r as usize] {
            Some((p, w)) if reached[r as usize] => (p, w),
            _ => {
                let lsb = r & r.wrapping_neg();
                (r - lsb, u64::from(lsb))
            }
        };
    }
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut order: Vec<u32> = (1..size).collect();
    order.sort_by_key(|&r| (edges[r as usize].1, r));
    for r in order {
        children[edges[r as usize].0 as usize].push(r);
    }
    children
}

/// Locality-greedy tree over relative ranks: group ranks by the node and
/// pod they land on under the given placement, then reduce binomially
/// *within* each node (leader = lowest member), binomially among node
/// leaders within each pod, and binomially among pod leaders at the top.
/// Relative rank 0 is the lowest rank of its node, its node leads its
/// pod, and its pod leads the tree, so the root is always rel 0.
/// Children are listed innermost level first (intra-node, then
/// intra-pod, then cross-pod): the cheapest edges are waited on first.
fn locality_children(
    size: u32,
    ranks_per_node: u32,
    nodes_per_pod: u32,
    cyclic: bool,
) -> Vec<Vec<u32>> {
    let n = size as usize;
    let num_nodes = size.div_ceil(ranks_per_node).max(1);
    let node_of = |rel: u32| -> u32 {
        if cyclic {
            rel % num_nodes
        } else {
            rel / ranks_per_node
        }
    };
    // Ranks per node, ascending (iteration order keeps them sorted), so
    // members[0] is the node leader.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_nodes as usize];
    for rel in 0..size {
        members[node_of(rel) as usize].push(rel);
    }
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    // Binomial tree over an index space, emitting item-level edges.
    let link_binomial = |items: &[u32], children: &mut Vec<Vec<u32>>| {
        let m = items.len() as u32;
        for i in 0..m {
            let mut mask = 1u32;
            while mask < m && i & mask == 0 {
                let child = i | mask;
                if child < m {
                    children[items[i as usize] as usize].push(items[child as usize]);
                }
                mask <<= 1;
            }
        }
    };
    // Level 1: within each occupied node.
    let mut node_leaders: Vec<Vec<u32>> = Vec::new(); // per pod, ascending
    for (node, ranks) in members.iter().enumerate() {
        if ranks.is_empty() {
            continue;
        }
        link_binomial(ranks, &mut children);
        let pod = node as u32 / nodes_per_pod;
        if node_leaders.len() <= pod as usize {
            node_leaders.resize(pod as usize + 1, Vec::new());
        }
        node_leaders[pod as usize].push(ranks[0]);
    }
    // Level 2: among node leaders within each pod.
    let mut pod_leaders: Vec<u32> = Vec::new();
    for leaders in &node_leaders {
        if leaders.is_empty() {
            continue;
        }
        link_binomial(leaders, &mut children);
        pod_leaders.push(leaders[0]);
    }
    // Level 3: among pod leaders; pod_leaders[0] == 0 is the tree root.
    debug_assert_eq!(pod_leaders.first().copied(), Some(0));
    link_binomial(&pod_leaders, &mut children);
    children
}

/// Precomputed per-rank schedule for one `(kind, root, size)` tree.
///
/// Stored in CSR form: a flat child array plus per-rank offsets, so
/// [`TopoSchedule::children_of`] is an allocation-free slice borrow. All
/// ranks in the arrays are *absolute* (already rotated by `root`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoSchedule {
    kind: TopologyKind,
    root: Rank,
    size: u32,
    /// Per-rank parent, `u32::MAX` for the root (kept dense for cache
    /// friendliness; exposed as `Option` via [`TopoSchedule::parent_of`]).
    parent: Vec<u32>,
    /// CSR offsets into `child_arr`, length `size + 1`.
    child_off: Vec<u32>,
    /// Flat child array in per-rank wait order.
    child_arr: Vec<Rank>,
    /// Per-rank hops to the root — the schedule's phase tag: a rank at
    /// depth `d` can only be folded after its whole depth-`> d` subtree.
    depth: Vec<u32>,
    max_depth: u32,
    last_node: Rank,
}

impl TopoSchedule {
    /// Build the schedule; see [`TopologyKind::schedule`].
    ///
    /// # Panics
    /// Panics if `size == 0` or `root >= size`.
    pub fn build(kind: TopologyKind, root: Rank, size: u32) -> TopoSchedule {
        assert!(size >= 1, "communicator size must be >= 1");
        assert!(root < size, "root {root} out of range for size {size}");
        let n = size as usize;
        let mut parent = vec![u32::MAX; n];
        let mut child_off = Vec::with_capacity(n + 1);
        let mut child_arr = Vec::new();
        let mut kids = Vec::new();
        child_off.push(0);
        // Per-rank families evaluate children directly; whole-tree
        // families (bine, locality) precompute every rank's list at once.
        let whole = kind.children_lists(size);
        for rank in 0..size {
            let rel = tree::rel_rank(rank, root, size);
            kids.clear();
            match &whole {
                Some(lists) => kids.extend_from_slice(&lists[rel as usize]),
                None => kind.children_rel(rel, size, &mut kids),
            }
            for &child_rel in &kids {
                let child = tree::abs_rank(child_rel, root, size);
                child_arr.push(child);
                parent[child as usize] = rank;
            }
            child_off.push(child_arr.len() as u32);
        }
        debug_assert_eq!(child_arr.len() as u32, size - 1, "not a spanning tree");
        // Depth by BFS over the child CSR from the root: O(n) total. (The
        // previous per-rank parent walk was O(n * depth) — quadratic for a
        // chain, i.e. 4 * 10^9 steps at 65,536 ranks.)
        let mut depth = vec![0u32; n];
        let mut frontier = vec![root];
        let mut next = Vec::new();
        let mut visited = 1u32;
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            for &rank in &frontier {
                let lo = child_off[rank as usize] as usize;
                let hi = child_off[rank as usize + 1] as usize;
                for &child in &child_arr[lo..hi] {
                    depth[child as usize] = level;
                    visited += 1;
                    next.push(child);
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        debug_assert_eq!(visited, size, "tree does not span all ranks");
        // Deepest contribution path; ties toward the larger relative rank
        // (matches `tree::last_node` for the binomial family).
        let last_rel = (0..size)
            .max_by_key(|&rel| (depth[tree::abs_rank(rel, root, size) as usize], rel))
            .expect("size >= 1");
        let last_node = tree::abs_rank(last_rel, root, size);
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        TopoSchedule {
            kind,
            root,
            size,
            parent,
            child_off,
            child_arr,
            depth,
            max_depth,
            last_node,
        }
    }

    /// The tree family this schedule was built from.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// The reduction root.
    pub fn root(&self) -> Rank {
        self.root
    }

    /// Communicator size.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The children `rank` waits on, in wait order, as an allocation-free
    /// slice.
    pub fn children_of(&self, rank: Rank) -> &[Rank] {
        let lo = self.child_off[rank as usize] as usize;
        let hi = self.child_off[rank as usize + 1] as usize;
        &self.child_arr[lo..hi]
    }

    /// The parent `rank` forwards its partial result to; `None` for the
    /// root.
    pub fn parent_of(&self, rank: Rank) -> Option<Rank> {
        match self.parent[rank as usize] {
            u32::MAX => None,
            p => Some(p),
        }
    }

    /// True if `rank` contributes but folds nothing (white nodes in
    /// Fig. 1).
    pub fn is_leaf(&self, rank: Rank) -> bool {
        rank != self.root && self.children_of(rank).is_empty()
    }

    /// True if `rank` folds children and forwards — the only nodes
    /// application bypass optimizes (§II).
    pub fn is_internal(&self, rank: Rank) -> bool {
        rank != self.root && !self.children_of(rank).is_empty()
    }

    /// Hops from `rank` to the root (the schedule's phase tag).
    pub fn depth_of(&self, rank: Rank) -> u32 {
        self.depth[rank as usize]
    }

    /// Depth of the whole tree in hops.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// The rank whose contribution traverses the most hops to the root,
    /// ties toward the larger relative rank — the "last node" of the §VI
    /// latency microbenchmark.
    pub fn last_node(&self) -> Rank {
        self.last_node
    }
}

/// Process-global registry of built schedules keyed by
/// `(kind, root, size)`. A schedule is pure structure — it depends only on
/// its key — so every engine in the process can share one copy. Without
/// this, an `n`-rank simulation builds the same `(root = reduction root,
/// size = n)` schedule once *per engine*: `O(n)` memory and build time per
/// rank, `O(n^2)` for the cluster — about 1 GB of redundant `Vec`s at 8k
/// ranks and an infeasible ~45 GB at 64k.
type ScheduleMap = HashMap<(TopologyKind, Rank, u32), Arc<TopoSchedule>>;
static REGISTRY: OnceLock<Mutex<ScheduleMap>> = OnceLock::new();

fn registry_get(kind: TopologyKind, root: Rank, size: u32) -> Arc<TopoSchedule> {
    let reg = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(s) = reg.lock().unwrap().get(&(kind, root, size)) {
        return Arc::clone(s);
    }
    // Build outside the lock so one slow build (64k ranks) doesn't stall
    // unrelated lookups; a racing duplicate build is rare and harmless —
    // first insert wins, the loser's copy is dropped.
    let built = Arc::new(TopoSchedule::build(kind, root, size));
    let mut map = reg.lock().unwrap();
    Arc::clone(map.entry((kind, root, size)).or_insert(built))
}

/// Fetch the process-global shared schedule for an arbitrary
/// `(kind, root, size)` triple, building it on first use.
///
/// Its callers (the dual-root allreduce's chain/chainrev halves) need a
/// schedule of a *different* kind than the engine's [`ScheduleCache`] was
/// built for.
pub fn shared_schedule(kind: TopologyKind, root: Rank, size: u32) -> Arc<TopoSchedule> {
    registry_get(kind, root, size)
}

/// Per-engine view of the schedule store, keyed by `(root, size)` (the kind
/// is fixed per cache). Collective instances share the cached schedule via
/// `Arc`, so steady-state reductions allocate nothing for tree structure.
///
/// The cache is a thin local index over the process-global registry, so
/// all engines in a simulation share one `TopoSchedule` per shape.
#[derive(Debug, Clone)]
pub struct ScheduleCache {
    kind: TopologyKind,
    map: SmallMap<(Rank, u32), Arc<TopoSchedule>>,
}

impl ScheduleCache {
    /// Empty cache for one tree family, backed by the process-global
    /// registry.
    pub fn new(kind: TopologyKind) -> ScheduleCache {
        ScheduleCache {
            kind,
            map: SmallMap::new(),
        }
    }

    /// The tree family this cache builds.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// The schedule for `(root, size)`, fetched from the process-global
    /// registry on first use.
    pub fn get(&mut self, root: Rank, size: u32) -> Arc<TopoSchedule> {
        let kind = self.kind;
        Arc::clone(
            self.map
                .entry((root, size))
                .or_insert_with(|| registry_get(kind, root, size)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_KINDS: [TopologyKind; 9] = [
        TopologyKind::Binomial,
        TopologyKind::Knomial(2),
        TopologyKind::Knomial(4),
        TopologyKind::Chain,
        TopologyKind::ChainRev,
        TopologyKind::Flat,
        TopologyKind::Bine,
        TopologyKind::Locality {
            ranks_per_node: 4,
            nodes_per_pod: 16,
            cyclic: true,
        },
        TopologyKind::Locality {
            ranks_per_node: 2,
            nodes_per_pod: 2,
            cyclic: false,
        },
    ];

    #[test]
    fn binomial_schedule_matches_tree_module_exactly() {
        for size in 1..=40u32 {
            for root in 0..size {
                let s = TopologyKind::Binomial.schedule(root, size);
                for rank in 0..size {
                    assert_eq!(
                        s.children_of(rank),
                        &tree::children(rank, root, size)[..],
                        "children size={size} root={root} rank={rank}"
                    );
                    assert_eq!(s.parent_of(rank), tree::parent(rank, root, size));
                    assert_eq!(s.is_leaf(rank), tree::is_leaf(rank, root, size));
                    assert_eq!(s.is_internal(rank), tree::is_internal(rank, root, size));
                    assert_eq!(s.depth_of(rank), tree::hops_to_root(rank, root, size));
                }
                assert_eq!(s.last_node(), tree::last_node(root, size));
                // Binomial depth is the relative-rank popcount; `tree_depth`
                // (ceil(log2)) can exceed it at non-power-of-two sizes.
                let max_hops = (0..size).map(u32::count_ones).max().unwrap();
                assert_eq!(s.max_depth(), max_hops);
            }
        }
    }

    #[test]
    fn knomial2_is_binomial() {
        for size in [1u32, 2, 3, 7, 8, 9, 16, 31, 33] {
            for root in [0, size / 2, size - 1] {
                assert_eq!(
                    TopologyKind::Knomial(2).schedule(root, size),
                    TopologyKind::Binomial
                        .schedule(root, size)
                        .clone_as_kind(TopologyKind::Knomial(2)),
                    "size={size} root={root}"
                );
            }
        }
    }

    #[test]
    fn knomial4_fig_shapes() {
        // Root 0, size 16, radix 4: children of 0 are 1,2,3 (level 0) then
        // 4,8,12 (level 1); 4's children are 5,6,7; 13 is a leaf.
        let s = TopologyKind::Knomial(4).schedule(0, 16);
        assert_eq!(s.children_of(0), &[1, 2, 3, 4, 8, 12]);
        assert_eq!(s.children_of(4), &[5, 6, 7]);
        assert_eq!(s.children_of(13), &[] as &[Rank]);
        assert_eq!(s.parent_of(13), Some(12));
        assert_eq!(s.max_depth(), 2);
    }

    #[test]
    fn chain_and_flat_shapes() {
        let c = TopologyKind::Chain.schedule(0, 5);
        assert_eq!(c.children_of(0), &[1]);
        assert_eq!(c.children_of(3), &[4]);
        assert_eq!(c.parent_of(4), Some(3));
        assert_eq!(c.max_depth(), 4);
        assert_eq!(c.last_node(), 4);
        let f = TopologyKind::Flat.schedule(0, 5);
        assert_eq!(f.children_of(0), &[1, 2, 3, 4]);
        assert!((1..5).all(|r| f.is_leaf(r)));
        assert_eq!(f.max_depth(), 1);
    }

    #[test]
    fn chainrev_is_the_physical_reverse_of_chain() {
        // Rooted at size-1, chainrev is the physical chain 0 -> 1 -> ... ->
        // size-1 with data flowing upward — the genuine reverse of
        // Chain(root 0), which Chain(root size-1) is NOT (it wraps).
        let r = TopologyKind::ChainRev.schedule(4, 5);
        assert_eq!(r.children_of(4), &[3]);
        assert_eq!(r.children_of(3), &[2]);
        assert_eq!(r.children_of(1), &[0]);
        assert_eq!(r.children_of(0), &[] as &[Rank]);
        assert_eq!(r.parent_of(0), Some(1));
        assert_eq!(r.max_depth(), 4);
        assert_eq!(r.last_node(), 0);
        // Each rank's parent edge is the same physical link Chain(root 0)
        // uses, just traversed the other way.
        let c = TopologyKind::Chain.schedule(0, 5);
        for rank in 0..5u32 {
            let down = c.parent_of(rank);
            let up = r.parent_of(rank);
            match (down, up) {
                (None, Some(p)) => assert_eq!(p, rank + 1),
                (Some(p), None) => assert_eq!(p, rank - 1),
                (Some(_), Some(p)) => assert_eq!(p, rank + 1),
                (None, None) => panic!("rank {rank} is root of both chains"),
            }
        }
        // Degenerate sizes still span.
        assert_eq!(TopologyKind::ChainRev.schedule(0, 1).size(), 1);
        let two = TopologyKind::ChainRev.schedule(1, 2);
        assert_eq!(two.children_of(1), &[0]);
    }

    #[test]
    fn shared_schedule_matches_fresh_build() {
        let via_registry = shared_schedule(TopologyKind::ChainRev, 3, 6);
        assert_eq!(*via_registry, TopologyKind::ChainRev.schedule(3, 6));
        // Same Arc on repeat lookups.
        assert!(Arc::ptr_eq(
            &via_registry,
            &shared_schedule(TopologyKind::ChainRev, 3, 6)
        ));
    }

    #[test]
    fn bine_shape_at_8() {
        // Hand-derived from the negabinary parent rule: 1,4,6 hang off
        // the root (distances 1, 4, 2), 4 folds {5, 2}, 2 folds {3},
        // 6 folds {7}.
        let s = TopologyKind::Bine.schedule(0, 8);
        assert_eq!(s.children_of(0), &[1, 6, 4]);
        assert_eq!(s.children_of(4), &[5, 2]);
        assert_eq!(s.children_of(2), &[3]);
        assert_eq!(s.children_of(6), &[7]);
        assert_eq!(s.parent_of(3), Some(2));
        assert_eq!(s.max_depth(), 3);
    }

    #[test]
    fn bine_spans_at_awkward_sizes() {
        // Non-power-of-two sizes exercise the binomial-graft fallback.
        for size in [1u32, 2, 3, 5, 6, 7, 9, 12, 13, 31, 33, 100, 255, 257] {
            for root in [0, size / 2, size - 1] {
                let s = TopologyKind::Bine.schedule(root, size);
                let mut edges = 0;
                for rank in 0..size {
                    edges += s.children_of(rank).len() as u32;
                    let mut cur = rank;
                    let mut hops = 0;
                    while let Some(p) = s.parent_of(cur) {
                        cur = p;
                        hops += 1;
                        assert!(hops < size, "cycle at size={size} root={root} rank={rank}");
                    }
                    assert_eq!(cur, root);
                }
                assert_eq!(edges, size - 1, "size={size} root={root}");
            }
        }
    }

    #[test]
    fn locality_prefers_intra_node_edges() {
        // 16 ranks, 4 per node, 2 nodes per pod, blocked placement:
        // nodes {0-3},{4-7},{8-11},{12-15}; pods {node0,node1},{node2,node3}.
        let kind = TopologyKind::Locality {
            ranks_per_node: 4,
            nodes_per_pod: 2,
            cyclic: false,
        };
        let s = kind.schedule(0, 16);
        // Rank 0: intra-node binomial children (1, 2), then node leader 4
        // (same pod), then pod leader 8.
        assert_eq!(s.children_of(0), &[1, 2, 4, 8]);
        // Node leader 4 folds its node (5, 6) — no pod/top duties.
        assert_eq!(s.children_of(4), &[5, 6]);
        // Pod leader 8 folds its node, then node leader 12.
        assert_eq!(s.children_of(8), &[9, 10, 12]);
        // Only node leaders cross nodes: exactly num_nodes - 1 = 3
        // cross-node edges.
        let cross_node = (0..16u32)
            .filter_map(|r| s.parent_of(r).map(|p| (r / 4, p / 4)))
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(cross_node, 3);
    }

    #[test]
    fn locality_cyclic_keeps_node_groups_together() {
        // 32 ranks round-robin over 8 nodes of 4 slots: node(r) = r % 8.
        let kind = TopologyKind::Locality {
            ranks_per_node: 4,
            nodes_per_pod: 4,
            cyclic: true,
        };
        let s = kind.schedule(0, 32);
        // Every non-leader rank's parent lives on the same node under the
        // cyclic map, except the 7 node-leader edges.
        let cross = (0..32u32)
            .filter_map(|r| s.parent_of(r).map(|p| (r % 8, p % 8)))
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(cross, 7);
    }

    #[test]
    fn rotation_applies_to_all_kinds() {
        for kind in ALL_KINDS {
            let s = kind.schedule(3, 8);
            assert_eq!(s.parent_of(3), None, "{kind}");
            // Every non-root reaches 3 by walking parents.
            for rank in 0..8u32 {
                let mut cur = rank;
                while let Some(p) = s.parent_of(cur) {
                    cur = p;
                }
                assert_eq!(cur, 3, "{kind} rank {rank}");
            }
        }
    }

    #[test]
    fn parse_accepts_and_rejects() {
        assert_eq!(
            TopologyKind::parse(" binomial "),
            Ok(TopologyKind::Binomial)
        );
        assert_eq!(
            TopologyKind::parse("knomial8"),
            Ok(TopologyKind::Knomial(8))
        );
        assert_eq!(TopologyKind::parse("chain"), Ok(TopologyKind::Chain));
        assert_eq!(TopologyKind::parse("flat"), Ok(TopologyKind::Flat));
        for bad in [
            "", "ring", "knomial", "knomial0", "knomial1", "knomialx", "Binomial",
        ] {
            let err = TopologyKind::parse(bad).unwrap_err();
            assert!(err.contains("ABR_TOPO"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        for kind in ALL_KINDS {
            assert_eq!(TopologyKind::parse(&kind.to_string()), Ok(kind));
        }
    }

    #[test]
    fn cache_shares_one_schedule_per_shape() {
        let mut cache = ScheduleCache::new(TopologyKind::Chain);
        let a = cache.get(0, 8);
        let b = cache.get(0, 8);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.get(1, 8);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.kind(), TopologyKind::Chain);
    }

    #[test]
    fn registry_shares_schedules_across_caches() {
        // Two independent shared caches (distinct engines in a real run)
        // must hand out the *same* Arc for the same shape.
        let mut c1 = ScheduleCache::new(TopologyKind::Knomial(3));
        let mut c2 = ScheduleCache::new(TopologyKind::Knomial(3));
        assert!(Arc::ptr_eq(&c1.get(2, 9), &c2.get(2, 9)));
        // The shared instance is the structure a fresh build yields.
        assert_eq!(
            *c1.get(2, 9),
            TopoSchedule::build(TopologyKind::Knomial(3), 2, 9)
        );
    }

    #[test]
    fn schedules_build_at_64k_ranks() {
        // Regression for scale: the depth computation must stay O(n) (the
        // old parent-walk was quadratic for a chain) and all CSR offsets,
        // rank ids, and depth tags must fit their u32 types at 65,536.
        const N: u32 = 65_536;
        for kind in [
            TopologyKind::Binomial,
            TopologyKind::Knomial(4),
            TopologyKind::Chain,
        ] {
            let s = kind.schedule(0, N);
            assert_eq!(s.size(), N);
            // CSR invariant: offsets are monotone and end at n - 1 edges.
            assert!(s.child_off.windows(2).all(|w| w[0] <= w[1]), "{kind}");
            assert_eq!(*s.child_off.last().unwrap(), N - 1);
            let expect_depth = match kind {
                TopologyKind::Binomial => 16,
                TopologyKind::Knomial(4) => 8,
                TopologyKind::Chain => N - 1,
                _ => unreachable!(),
            };
            assert_eq!(s.max_depth(), expect_depth, "{kind}");
            assert_eq!(s.depth_of(s.last_node()), expect_depth, "{kind}");
            // Every rank's parent edge is consistent with the child arrays.
            for rank in [1u32, 255, 4_095, 65_535] {
                let p = s.parent_of(rank).expect("non-root has parent");
                assert!(s.children_of(p).contains(&rank), "{kind} rank {rank}");
                assert_eq!(s.depth_of(rank), s.depth_of(p) + 1, "{kind} rank {rank}");
            }
        }
    }

    impl TopoSchedule {
        /// Test helper: relabel the kind so structural equality can be
        /// asserted across families that build the same tree.
        fn clone_as_kind(&self, kind: TopologyKind) -> TopoSchedule {
            TopoSchedule {
                kind,
                ..self.clone()
            }
        }
    }
}
