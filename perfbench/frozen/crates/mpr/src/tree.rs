//! The binomial tree MPICH organizes reduction around (Fig. 1).
//!
//! Ranks are rotated so that the reduction root sits at relative rank 0;
//! relative rank `r` sends to `r - lsb(r)` and receives from `r | mask` for
//! every `mask` (a power of two) below `lsb(r)`. This is exactly the mask
//! loop in MPICH's `intra_Reduce`, and the child order (increasing mask) is
//! the order the default implementation blocks on its children — the order
//! sensitivity that application bypass removes.

use crate::types::Rank;

/// Relative rank of `rank` when the tree is rooted at `root`.
#[inline]
pub fn rel_rank(rank: Rank, root: Rank, size: u32) -> u32 {
    debug_assert!(rank < size && root < size);
    (rank + size - root) % size
}

/// Absolute rank of relative rank `rel` for a tree rooted at `root`.
#[inline]
pub fn abs_rank(rel: u32, root: Rank, size: u32) -> Rank {
    debug_assert!(rel < size && root < size);
    (rel + root) % size
}

/// The parent `rank` sends its (partial) result to; `None` for the root.
pub fn parent(rank: Rank, root: Rank, size: u32) -> Option<Rank> {
    let rel = rel_rank(rank, root, size);
    if rel == 0 {
        return None;
    }
    let lsb = rel & rel.wrapping_neg();
    Some(abs_rank(rel - lsb, root, size))
}

/// The children `rank` receives from, in the order the default blocking
/// implementation waits on them (increasing mask).
pub fn children(rank: Rank, root: Rank, size: u32) -> Vec<Rank> {
    let rel = rel_rank(rank, root, size);
    let mut out = Vec::new();
    let mut mask = 1u32;
    while mask < size {
        if rel & mask != 0 {
            break; // from here on this node is a sender, not a receiver
        }
        let child_rel = rel | mask;
        if child_rel < size {
            out.push(abs_rank(child_rel, root, size));
        }
        mask <<= 1;
    }
    out
}

/// True if `rank` has no children (white nodes in Fig. 1).
pub fn is_leaf(rank: Rank, root: Rank, size: u32) -> bool {
    rank != root && children(rank, root, size).is_empty()
}

/// True if `rank` has children and is not the root (gray nodes in Fig. 1) —
/// the only nodes application bypass optimizes (§II).
pub fn is_internal(rank: Rank, root: Rank, size: u32) -> bool {
    rank != root && !children(rank, root, size).is_empty()
}

/// Number of hops a contribution originating at `rank` takes to reach the
/// root (the popcount of the relative rank).
pub fn hops_to_root(rank: Rank, root: Rank, size: u32) -> u32 {
    rel_rank(rank, root, size).count_ones()
}

/// The "last node" of the latency microbenchmark (§VI): the rank whose
/// contribution traverses the most hops to the root; ties broken toward the
/// larger relative rank.
pub fn last_node(root: Rank, size: u32) -> Rank {
    let rel = (0..size)
        .max_by_key(|&r| (r.count_ones(), r))
        .expect("size >= 1");
    abs_rank(rel, root, size)
}

/// Depth of the whole tree in hops (`ceil(log2(size))`).
pub fn tree_depth(size: u32) -> u32 {
    debug_assert!(size >= 1);
    32 - (size - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_eight_node_tree() {
        // The paper's Fig. 1: root 0; leaves send to 0/2/4/6 per binomial
        // structure. With root 0: children(0)=[1,2,4], children(2)=[3],
        // children(4)=[5,6], children(6)=[7].
        let size = 8;
        assert_eq!(children(0, 0, size), vec![1, 2, 4]);
        assert_eq!(children(2, 0, size), vec![3]);
        assert_eq!(children(4, 0, size), vec![5, 6]);
        assert_eq!(children(6, 0, size), vec![7]);
        for leaf in [1, 3, 5, 7] {
            assert!(children(leaf, 0, size).is_empty());
            assert!(is_leaf(leaf, 0, size));
        }
        assert!(is_internal(2, 0, size));
        assert!(is_internal(4, 0, size));
        assert!(is_internal(6, 0, size));
        assert!(!is_internal(0, 0, size));
        assert!(!is_internal(7, 0, size));
    }

    #[test]
    fn parent_child_are_duals() {
        for size in 1..=40u32 {
            for root in 0..size {
                for rank in 0..size {
                    if let Some(p) = parent(rank, root, size) {
                        assert!(
                            children(p, root, size).contains(&rank),
                            "size={size} root={root}: {p} not parent of {rank}"
                        );
                    } else {
                        assert_eq!(rank, root);
                    }
                }
            }
        }
    }

    #[test]
    fn edge_count_is_size_minus_one() {
        for size in 1..=64u32 {
            for root in [0, size / 2, size - 1] {
                let edges: usize = (0..size).map(|r| children(r, root, size).len()).sum();
                assert_eq!(edges as u32, size - 1, "size={size} root={root}");
            }
        }
    }

    #[test]
    fn every_nonroot_has_exactly_one_parent() {
        for size in 1..=33u32 {
            let root = 3 % size;
            let mut seen = vec![0u32; size as usize];
            for rank in 0..size {
                for c in children(rank, root, size) {
                    seen[c as usize] += 1;
                }
            }
            for rank in 0..size {
                let expected = u32::from(rank != root);
                assert_eq!(seen[rank as usize], expected, "size={size} rank={rank}");
            }
        }
    }

    #[test]
    fn rotation_moves_the_root() {
        let size = 8;
        // With root 3, rank 3 plays the old rank-0 role.
        assert_eq!(children(3, 3, size), vec![4, 5, 7]);
        assert_eq!(parent(3, 3, size), None);
        assert_eq!(parent(4, 3, size), Some(3));
    }

    #[test]
    fn hops_bounded_by_depth() {
        for size in 1..=64u32 {
            for rank in 0..size {
                assert!(hops_to_root(rank, 0, size) <= tree_depth(size));
            }
        }
    }

    #[test]
    fn tree_depth_values() {
        assert_eq!(tree_depth(1), 0);
        assert_eq!(tree_depth(2), 1);
        assert_eq!(tree_depth(3), 2);
        assert_eq!(tree_depth(4), 2);
        assert_eq!(tree_depth(5), 3);
        assert_eq!(tree_depth(32), 5);
        assert_eq!(tree_depth(33), 6);
    }

    #[test]
    fn last_node_power_of_two() {
        // For size 2^k the deepest node is relative rank 2^k - 1.
        assert_eq!(last_node(0, 8), 7);
        assert_eq!(last_node(0, 32), 31);
        // Rotation applies.
        assert_eq!(last_node(2, 8), (7 + 2) % 8);
    }

    #[test]
    fn last_node_non_power_of_two() {
        // size 6: relative ranks 0..5; popcounts 0,1,1,2,1,2 -> max at 5.
        assert_eq!(last_node(0, 6), 5);
        // size 5: popcounts 0,1,1,2,1 -> rel 3.
        assert_eq!(last_node(0, 5), 3);
    }

    #[test]
    fn single_node_tree() {
        assert_eq!(parent(0, 0, 1), None);
        assert!(children(0, 0, 1).is_empty());
        assert!(!is_internal(0, 0, 1));
        assert_eq!(last_node(0, 1), 0);
    }

    #[test]
    fn two_node_tree_has_no_internal_nodes() {
        // The paper's observation that AB cannot help at 2 nodes: only a
        // root and a leaf exist.
        for root in 0..2 {
            assert!((0..2).all(|r| !is_internal(r, root, 2)));
        }
    }

    #[test]
    fn rel_abs_roundtrip() {
        for size in 1..=17u32 {
            for root in 0..size {
                for rank in 0..size {
                    let rel = rel_rank(rank, root, size);
                    assert_eq!(abs_rank(rel, root, size), rank);
                }
            }
        }
    }

    #[test]
    fn children_are_sorted_by_mask() {
        // Increasing mask order == increasing relative rank distance.
        let kids = children(0, 0, 32);
        assert_eq!(kids, vec![1, 2, 4, 8, 16]);
    }
}
