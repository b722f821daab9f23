//! Pins the exact draw order of [`TraceGenerator::generate`] (one shared
//! RNG) and [`TraceGenerator::generate_partitioned`] (per-family RNGs)
//! under every scenario policy.
//!
//! The golden fingerprints cover `generate()` only under `Stationary` and
//! (through a summary) `RotationBurst`. These hashes cover every field of
//! every record, in corpus order, for all five policies, so any change to
//! the order in which either RNG source is consumed shows up here.

use ddos_trace::{AttackRecord, Corpus, CorpusConfig, ScenarioPolicy, TraceGenerator};

/// FNV-1a 64 over little-endian field bytes: stable across platforms and
/// toolchains, unlike `std`'s `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

fn record_hash(records: &[AttackRecord]) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.u64(records.len() as u64);
    for a in records {
        h.u64(a.id.0);
        h.u64(a.family.0 as u64);
        h.u64(u64::from(a.target.0));
        h.u64(u64::from(a.target_asn.0));
        h.u64(a.start.0);
        h.u64(a.duration_secs);
        h.u64(a.bots().len() as u64);
        for b in a.bots() {
            h.u64(u64::from(b.ip));
            h.u64(u64::from(b.asn.0));
        }
        h.u64(a.hourly_bot_counts.len() as u64);
        for &c in &a.hourly_bot_counts {
            h.u64(u64::from(c));
        }
        h.u64(u64::from(a.multistage));
        h.u64(a.vector.index() as u64);
    }
    h.0
}

/// `(policy, attacks, record hash)` for seed 42 on the small catalog. A
/// mismatch means the generator consumes its RNG in a different order.
const PINNED: [(ScenarioPolicy, usize, u64); 5] = [
    (ScenarioPolicy::Stationary, 876, 480_641_349_857_384_894),
    (ScenarioPolicy::RotationBurst, 1320, 2_957_158_317_115_894_238),
    (ScenarioPolicy::TargetMigration, 876, 16_859_427_236_096_803_434),
    (ScenarioPolicy::DiurnalDrift, 1535, 3_012_305_103_010_296_441),
    (ScenarioPolicy::MultiVectorBlend, 1083, 4_388_245_364_652_071_205),
];

/// The same pin for the family-partitioned path, recorded alongside.
const PINNED_PARTITIONED: [(ScenarioPolicy, usize, u64); 5] = [
    (ScenarioPolicy::Stationary, 1358, 6_884_966_105_770_757_447),
    (ScenarioPolicy::RotationBurst, 2043, 12_770_242_126_968_137_067),
    (ScenarioPolicy::TargetMigration, 1358, 771_478_399_848_425_005),
    (ScenarioPolicy::DiurnalDrift, 1592, 5_687_187_974_193_399_487),
    (ScenarioPolicy::MultiVectorBlend, 1317, 8_409_501_288_981_789_637),
];

fn pins(
    expected: [(ScenarioPolicy, usize, u64); 5],
    generate: impl Fn(&TraceGenerator) -> ddos_trace::Result<Corpus>,
) {
    let actual: Vec<_> = expected
        .iter()
        .map(|&(policy, _, _)| {
            let generator = TraceGenerator::new(CorpusConfig::small().with_scenario(policy), 42);
            let corpus = generate(&generator).unwrap();
            (policy, corpus.len(), record_hash(corpus.attacks()))
        })
        .collect();
    assert_eq!(actual, expected);
}

#[test]
fn generate_draw_order_is_pinned_for_every_policy() {
    pins(PINNED, TraceGenerator::generate);
}

#[test]
fn generate_partitioned_draw_order_is_pinned_for_every_policy() {
    pins(PINNED_PARTITIONED, TraceGenerator::generate_partitioned);
}
