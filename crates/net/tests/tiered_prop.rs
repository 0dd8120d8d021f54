//! Differential property suite: [`TieredSet`] vs the sorted-`Vec`
//! reference oracle ([`RefSet`]).
//!
//! Arbitrary operation sequences (insert / union / intersect /
//! difference) are applied to both backends simultaneously; after
//! every step the suite asserts *bit-identical* observable state —
//! length, ascending iteration, membership, prefix range counts, the
//! O(1) density index — plus the tiered set's structural invariants
//! (every chunk canonical for its contents, the arrays packed, and not
//! a byte of capacity kept beyond them).
//!
//! CI runs this with `PROPTEST_SEED=20160316 PROPTEST_CASES=10000`
//! (the `setops-differential` job); the in-file default keeps debug
//! `cargo test` fast.

use ipactive_net::{
    ActiveSet, Addr, AddrBits256, Block24, Prefix, PrefixDensity, RefSet, SetBuilder, TieredSet,
    TieredSetBuilder, SPARSE_MAX,
};
use proptest::prelude::*;

/// Block bases the clustered generator draws from: several /24s that
/// share /16s and /8s (so aggregate levels get multi-chunk sums), plus
/// the extremes of the address space.
const BLOCK_BASES: [u32; 12] = [
    0x0000_0000,
    0x0A00_0000,
    0x0A00_0100,
    0x0A00_0200,
    0x0A01_0000,
    0x0A01_0100,
    0xC0A8_0000,
    0xC0A8_0100,
    0xC633_6400,
    0xDFFF_FE00,
    0xFFFF_FE00,
    0xFFFF_FF00,
];

/// Addresses biased into a small set of /24 blocks so operations
/// actually collide on chunks (uniform u32s almost never would), with
/// a uniform tail mixed in for coverage of the whole space.
fn arb_addr() -> impl Strategy<Value = Addr> {
    (any::<u32>(), any::<u8>(), 0usize..16).prop_map(|(raw, host, pick)| {
        match BLOCK_BASES.get(pick) {
            Some(&base) => Addr::new(base | host as u32),
            None => Addr::new(raw),
        }
    })
}

fn arb_addr_vec(max: usize) -> impl Strategy<Value = Vec<Addr>> {
    prop::collection::vec(arb_addr(), 0..max)
}

/// One step of an operation sequence. Encoded numerically so the
/// vendored proptest shim needs no one-of combinator.
#[derive(Debug, Clone)]
enum Op {
    Insert(Addr),
    Union(Vec<Addr>),
    Intersect(Vec<Addr>),
    Difference(Vec<Addr>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..4, arb_addr(), arb_addr_vec(160)).prop_map(|(kind, addr, vec)| match kind {
        0 => Op::Insert(addr),
        1 => Op::Union(vec),
        2 => Op::Intersect(vec),
        _ => Op::Difference(vec),
    })
}

fn apply(op: &Op, tiered: &mut TieredSet, oracle: &mut RefSet) {
    match op {
        Op::Insert(a) => {
            let added_t = tiered.insert(*a);
            let added_r = ActiveSet::insert(oracle, *a);
            assert_eq!(added_t, added_r, "insert({a}) disagreed on novelty");
        }
        Op::Union(v) => {
            let rhs_t: TieredSet = v.iter().copied().collect();
            let rhs_r: RefSet = v.iter().copied().collect();
            *tiered = tiered.union(&rhs_t);
            *oracle = oracle.union(&rhs_r);
        }
        Op::Intersect(v) => {
            let rhs_t: TieredSet = v.iter().copied().collect();
            let rhs_r: RefSet = v.iter().copied().collect();
            *tiered = tiered.intersect(&rhs_t);
            *oracle = oracle.intersect(&rhs_r);
        }
        Op::Difference(v) => {
            let rhs_t: TieredSet = v.iter().copied().collect();
            let rhs_r: RefSet = v.iter().copied().collect();
            *tiered = tiered.difference(&rhs_t);
            *oracle = oracle.difference(&rhs_r);
        }
    }
}

/// Prefixes to probe range queries with: aggregates around each
/// member, host-granular slices, and fixed wide nets.
fn probe_prefixes(members: &[Addr]) -> Vec<Prefix> {
    let mut out = vec![
        "0.0.0.0/0".parse().unwrap(),
        "10.0.0.0/8".parse().unwrap(),
        "10.0.0.0/15".parse().unwrap(),
        "192.168.0.0/16".parse().unwrap(),
        "11.0.0.0/8".parse().unwrap(),
    ];
    for &a in members.iter().take(6) {
        for len in [32u8, 28, 25, 24, 23, 20, 12] {
            out.push(Prefix::containing(a, len));
        }
    }
    out
}

/// What a set may occupy: the struct, 8 directory bytes a chunk, 32 a
/// bitmap and 1 a sparse host, plus 64 for an allocator that rounds —
/// that is, no slack retained from the operation that built it.
fn byte_budget(set: &TieredSet) -> usize {
    let sparse_hosts: usize = set
        .block_counts()
        .iter()
        .map(|&(_, n)| n as usize)
        .filter(|&n| n <= SPARSE_MAX)
        .sum();
    let census = set.repr_census();
    core::mem::size_of::<TieredSet>() + 8 * census.total() + 32 * census.dense + sparse_hosts + 64
}

/// The full observable-equivalence check between the two backends.
fn assert_equiv(tiered: &TieredSet, oracle: &RefSet) {
    assert!(tiered.is_canonical(), "structural invariant broken: {tiered:?}");
    assert!(
        tiered.memory_bytes() <= byte_budget(tiered),
        "{tiered:?} holds {} bytes against a budget of {}",
        tiered.memory_bytes(),
        byte_budget(tiered)
    );
    assert_eq!(tiered.len(), oracle.len(), "len diverged");
    assert_eq!(tiered.is_empty(), oracle.is_empty());
    let t_members: Vec<Addr> = tiered.iter().collect();
    let r_members: Vec<Addr> = oracle.iter().collect();
    assert_eq!(t_members, r_members, "iteration diverged");
    for p in probe_prefixes(&r_members) {
        assert_eq!(tiered.count_in(p), oracle.count_in(p), "count_in({p}) diverged");
        assert_eq!(tiered.any_in(p), oracle.any_in(p), "any_in({p}) diverged");
    }
    for &a in r_members.iter().take(8) {
        assert!(tiered.contains(a), "member {a} missing");
        // A near-miss probe one past the member.
        if let Some(next) = a.next() {
            assert_eq!(tiered.contains(next), oracle.contains(next), "contains({next})");
        }
    }
    assert_eq!(ActiveSet::blocks24(tiered), ActiveSet::blocks24(oracle));
}

/// The representation the canonical rule must pick for a single-chunk
/// set with the given sorted host octets — recomputed independently of
/// the implementation.
fn expected_repr(hosts: &[u8]) -> &'static str {
    if hosts.len() <= SPARSE_MAX {
        "sparse"
    } else {
        "dense"
    }
}

fn census_label(t: &TieredSet) -> &'static str {
    let c = t.repr_census();
    assert_eq!(c.total(), 1, "expected a single chunk, got {c:?}");
    if c.sparse == 1 {
        "sparse"
    } else {
        "dense"
    }
}

proptest! {
    /// The tentpole: arbitrary op sequences, bit-identical at every step.
    #[test]
    fn differential_op_sequences(
        seed in arb_addr_vec(300),
        ops in prop::collection::vec(arb_op(), 0..10),
    ) {
        let mut tiered: TieredSet = seed.iter().copied().collect();
        let mut oracle: RefSet = seed.iter().copied().collect();
        assert_equiv(&tiered, &oracle);
        for op in &ops {
            apply(op, &mut tiered, &mut oracle);
            assert_equiv(&tiered, &oracle);
        }
    }

    /// Set algebra over two generated operands matches the oracle and
    /// obeys inclusion–exclusion on both backends.
    #[test]
    fn algebra_matches_oracle(xs in arb_addr_vec(400), ys in arb_addr_vec(400)) {
        let tx: TieredSet = xs.iter().copied().collect();
        let ty: TieredSet = ys.iter().copied().collect();
        let rx: RefSet = xs.iter().copied().collect();
        let ry: RefSet = ys.iter().copied().collect();
        for (t, r) in [
            (tx.union(&ty), rx.union(&ry)),
            (tx.intersect(&ty), rx.intersect(&ry)),
            (tx.difference(&ty), rx.difference(&ry)),
            (ty.difference(&tx), ry.difference(&rx)),
        ] {
            assert_equiv(&t, &r);
        }
        prop_assert_eq!(tx.intersect_len(&ty), rx.intersect_len(&ry));
        prop_assert_eq!(
            tx.union(&ty).len() + tx.intersect(&ty).len(),
            tx.len() + ty.len()
        );
    }

    /// Satellite: dense↔sparse threshold crossings in both directions
    /// keep every intermediate state canonical, and the representation
    /// is exactly the one the canonical rule dictates.
    #[test]
    fn chunk_transitions_are_canonical(hosts in prop::collection::vec(any::<u8>(), 1..256)) {
        let block = 0x0A000000u32;
        let mut model: Vec<u8> = Vec::new();
        let mut tiered = TieredSet::new();
        // Upward: insert one host at a time, crossing sparse→dense.
        for &h in &hosts {
            tiered.insert(Addr::new(block | h as u32));
            if let Err(i) = model.binary_search(&h) {
                model.insert(i, h);
            }
            prop_assert!(tiered.is_canonical());
            prop_assert_eq!(census_label(&tiered), expected_repr(&model));
        }
        // Downward: difference hosts away one at a time, crossing back.
        for &h in hosts.iter().rev() {
            let single: TieredSet = [Addr::new(block | h as u32)].into_iter().collect();
            tiered = tiered.difference(&single);
            if let Ok(i) = model.binary_search(&h) {
                model.remove(i);
            }
            prop_assert!(tiered.is_canonical());
            prop_assert_eq!(tiered.len(), model.len());
            if !model.is_empty() {
                prop_assert_eq!(census_label(&tiered), expected_repr(&model));
            } else {
                prop_assert_eq!(tiered.num_chunks(), 0);
            }
        }
        prop_assert!(tiered.is_empty());
    }

    /// Satellite: equal sets are structurally identical no matter how
    /// they were constructed — the canonical-form guarantee behind
    /// equality and snapshot determinism. With flat arrays the route
    /// could also leak through offsets or leftover capacity, so every
    /// route must report the same `memory_bytes()` too.
    #[test]
    fn construction_route_does_not_leak_into_representation(
        addrs in arb_addr_vec(500),
        extra in arb_addr_vec(200),
    ) {
        let collected: TieredSet = addrs.iter().copied().collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let from_sorted = TieredSet::from_sorted(sorted.clone());
        let mut builder = TieredSetBuilder::new();
        for block in collected.blocks24() {
            let members = sorted.iter().filter(|a| Block24::of(**a) == block);
            let bits: AddrBits256 = members.map(|a| a.host_index()).collect();
            builder.push_block(block, &bits);
        }
        let pushed = builder.finish();
        let mut inserted = TieredSet::new();
        for &a in addrs.iter().rev() {
            inserted.insert(a);
        }
        let mid = addrs.len() / 2;
        let lo: TieredSet = addrs[..mid].iter().copied().collect();
        let hi: TieredSet = addrs[mid..].iter().copied().collect();
        let unioned = lo.union(&hi);
        let surplus: TieredSet = extra.iter().copied().filter(|a| !collected.contains(*a)).collect();
        let carved = collected.union(&surplus).difference(&surplus);
        for (route, set) in [
            ("from_sorted", &from_sorted),
            ("push_block", &pushed),
            ("insert", &inserted),
            ("union of halves", &unioned),
            ("difference from a superset", &carved),
        ] {
            prop_assert!(&collected == set, "{} built a different set", route);
            prop_assert_eq!(collected.repr_census(), set.repr_census());
            prop_assert_eq!(collected.memory_bytes(), set.memory_bytes(), "{} kept other bytes", route);
        }
    }

    /// The O(1) density index agrees with direct range counts on both
    /// backends at every aggregation level.
    #[test]
    fn prefix_density_matches_range_counts(addrs in arb_addr_vec(500)) {
        let tiered: TieredSet = addrs.iter().copied().collect();
        let oracle: RefSet = addrs.iter().copied().collect();
        let density = tiered.prefix_density();
        prop_assert_eq!(PrefixDensity::from_set(&oracle), density.clone());
        prop_assert_eq!(density.total(), oracle.len() as u64);
        let members: Vec<Addr> = oracle.iter().collect();
        for &a in members.iter().take(8) {
            for len in [24u8, 20, 16, 12, 8, 4, 0] {
                let p = Prefix::containing(a, len);
                prop_assert_eq!(density.count(p), oracle.count_in(p) as u64);
            }
        }
        // Absent prefixes count zero.
        prop_assert_eq!(density.count("1.2.3.0/24".parse().unwrap()),
                        oracle.count_in("1.2.3.0/24".parse().unwrap()) as u64);
    }

    /// `to_prefixes` — the CIDR compression behind Table 2 — agrees
    /// between backends exactly.
    #[test]
    fn to_prefixes_matches_oracle(addrs in arb_addr_vec(400)) {
        let tiered: TieredSet = addrs.iter().copied().collect();
        let oracle: RefSet = addrs.iter().copied().collect();
        prop_assert_eq!(ActiveSet::to_prefixes(&tiered), oracle.to_prefixes());
    }

    /// The covering-mask primitive (event sizing, Section 4.2) is
    /// backend-independent.
    #[test]
    fn covering_mask_matches_oracle(addr in arb_addr(), excl in arb_addr_vec(200)) {
        use ipactive_net::covering_mask;
        let tiered: TieredSet = excl.iter().copied().filter(|&a| a != addr).collect();
        let oracle: RefSet = excl.iter().copied().filter(|&a| a != addr).collect();
        prop_assert_eq!(covering_mask(addr, &tiered), covering_mask(addr, &oracle));
    }
}
