//! Property-based tests for the AS-topology substrate: valley-free
//! legality, reachability and LPM correctness over randomized topologies.

use ddos_astopo::gen::{TopologyConfig, TopologyGenerator};
use ddos_astopo::graph::{Relationship, Tier};
use ddos_astopo::ipmap::{IpAsnMap, Prefix, PrefixAllocator};
use ddos_astopo::paths::PathOracle;
use ddos_astopo::Asn;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = TopologyConfig> {
    (2usize..5, 4usize..12, 12usize..40, 2u8..5).prop_map(|(t1, t2, stubs, regions)| {
        TopologyConfig {
            n_tier1: t1,
            n_tier2: t2,
            n_stubs: stubs,
            n_regions: regions,
            t2_peering_prob: 0.3,
            max_stub_providers: 2,
            out_of_region_prob: 0.1,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every stub pair is reachable (the tier-1 clique guarantees it) and
    /// every returned path is valley-free.
    #[test]
    fn all_paths_valley_free(config in arb_config(), seed in 0u64..500) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let oracle = PathOracle::new(&topo);
        let stubs = topo.tier_members(Tier::Stub);
        // Check a sample of pairs.
        for (i, a) in stubs.iter().enumerate().take(6) {
            for b in stubs.iter().skip(i + 1).take(6) {
                let path = oracle.path(*a, *b);
                prop_assert!(path.is_some(), "{a} -> {b} unreachable");
                let path = path.unwrap();
                // Valley-free legality.
                let mut phase = 0u8; // 0 climbing, 1 peered, 2 descending
                for w in path.windows(2) {
                    match topo.relationship(w[0], w[1]).unwrap() {
                        Relationship::Provider => prop_assert_eq!(phase, 0),
                        Relationship::Peer => {
                            prop_assert_eq!(phase, 0);
                            phase = 1;
                        }
                        Relationship::Customer => phase = 2,
                    }
                }
            }
        }
    }

    /// Hop distance is symmetric and satisfies the identity axiom.
    #[test]
    fn hop_distance_metric_axioms(config in arb_config(), seed in 0u64..500) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let oracle = PathOracle::new(&topo);
        let asns: Vec<Asn> = topo.asns().take(8).collect();
        for a in &asns {
            prop_assert_eq!(oracle.hop_distance(*a, *a), Some(0));
            for b in &asns {
                prop_assert_eq!(oracle.hop_distance(*a, *b), oracle.hop_distance(*b, *a));
            }
        }
    }

    /// Prefix allocation is collision-free and LPM maps every allocated
    /// address back to its owner.
    #[test]
    fn allocation_lpm_round_trip(config in arb_config(), seed in 0u64..500, probe in 0u64..4096) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let (map, allocs) = PrefixAllocator::new().allocate_for(&topo).unwrap();
        for (asn, prefixes) in allocs.iter().take(12) {
            for p in prefixes {
                let addr = p.address(probe);
                prop_assert_eq!(map.lookup(addr), Some(*asn));
            }
        }
    }

    /// The batched Eq. 4 distance kernel agrees element-wise with the
    /// per-pair scalar query on arbitrary topologies, including repeated
    /// and unknown ASNs in the batch.
    #[test]
    fn pairwise_distances_matches_per_pair_hop_distance(
        config in arb_config(),
        seed in 0u64..500,
    ) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let oracle = PathOracle::new(&topo);
        let mut batch: Vec<Asn> = topo.asns().take(10).collect();
        // Repeats and an ASN the topology has never seen.
        if let Some(first) = batch.first().copied() {
            batch.push(first);
        }
        batch.push(Asn(u32::MAX));
        let matrix = oracle.pairwise_distances(&batch);
        prop_assert_eq!(matrix.len(), batch.len());
        for (i, row) in matrix.iter().enumerate() {
            prop_assert_eq!(row.len(), batch.len());
            for (j, cell) in row.iter().enumerate() {
                prop_assert_eq!(*cell, oracle.hop_distance(batch[i], batch[j]));
            }
        }
    }

    /// The merged Eq. 4 distance agrees with the length of the path the
    /// two-case search reconstructs, for every pair of ASes; and the
    /// collapsed mean over an input with repeats equals the naive
    /// per-occurrence `i < j` loop bit for bit.
    #[test]
    fn hop_distance_matches_reconstructed_path(config in arb_config(), seed in 0u64..500) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let oracle = PathOracle::new(&topo);
        let asns: Vec<Asn> = topo.asns().collect();
        for a in &asns {
            for b in &asns {
                let via_path = oracle.path(*a, *b).map(|p| p.len() as u32 - 1);
                prop_assert_eq!(oracle.hop_distance(*a, *b), via_path);
            }
        }

        let mut input: Vec<Asn> = asns.iter().copied().step_by(3).collect();
        input.extend(asns.iter().copied().step_by(5));
        input.push(Asn(u32::MAX));
        let (mut total, mut count) = (0u64, 0u64);
        for (i, a) in input.iter().enumerate() {
            for b in &input[i + 1..] {
                if a == b {
                    continue;
                }
                if let Some(d) = oracle.hop_distance(*a, *b) {
                    total += d as u64;
                    count += 1;
                }
            }
        }
        let naive = if count == 0 { 0.0 } else { total as f64 / count as f64 };
        prop_assert_eq!(oracle.mean_pairwise_distance(&input).to_bits(), naive.to_bits());
    }

    /// Concurrent batched queries through the deterministic sharded
    /// executor return bit-for-bit the same matrices as serial calls:
    /// the Arc-cached cones behave as pure values under racing recompute.
    #[test]
    fn concurrent_batched_queries_match_serial(config in arb_config(), seed in 0u64..200) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let stubs = topo.tier_members(Tier::Stub);
        let batches: Vec<Vec<Asn>> = (0..8)
            .map(|k| stubs.iter().skip(k).step_by(2).copied().take(8).collect())
            .collect();

        // Serial reference on a fresh oracle (cold cone cache).
        let serial_oracle = PathOracle::new(&topo);
        let serial: Vec<_> =
            batches.iter().map(|b| serial_oracle.pairwise_distances(b)).collect();

        // Concurrent run on another fresh oracle: the shared cone cache is
        // populated by racing workers.
        let shared_oracle = PathOracle::new(&topo);
        let concurrent = ddos_stats::exec::map_indexed(&batches, Some(4), |_, b| {
            shared_oracle.pairwise_distances(b)
        });
        prop_assert_eq!(serial, concurrent);
    }

    /// LPM ignores addresses outside every allocation.
    #[test]
    fn lpm_unallocated_space_is_none(host in 0u32..0xffff) {
        let mut map = IpAsnMap::new();
        map.insert(Prefix::new(0x0a00_0000, 8).unwrap(), Asn(1)).unwrap();
        // 192.0.0.0/8 space was never allocated.
        prop_assert_eq!(map.lookup(0xc000_0000 | host), None);
    }
}
