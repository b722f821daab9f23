//! Constant-memory streaming corpus generation.
//!
//! [`CorpusStream`] yields the attacks of a family-partitioned corpus in
//! final sorted order **without materializing the corpus**: each family
//! draws from its own [`crate::generator::family_seed`]-derived RNG
//! stream, generation proceeds in bounded windows of days fanned across
//! the deterministic sharded executor, and a small reorder buffer emits
//! records as soon as no family can still produce an earlier one. The
//! yielded sequence is bit-identical to
//! [`crate::TraceGenerator::generate_partitioned`] for the same seed at
//! any worker count or chunk size — the executor reduces per-family
//! results in index order, so parallelism is a throughput knob, not a
//! semantic one.
//!
//! Memory is bounded by the substrate (topology, address plan, bot pools)
//! plus the reorder buffer, whose size is governed by the chunk width and
//! the 24-hour multistage band — not by the corpus length. That is what
//! makes [`crate::CorpusConfig::internet`] (≈5 M attacks) tractable.

use crate::attack::{AttackId, AttackRecord};
use crate::family::FamilyCatalog;
use crate::generator::{build_substrate, family_seed, CorpusConfig, FamilyGen, Substrate};
use crate::targets::TargetPopulation;
use crate::{Result, TraceError};
use ddos_astopo::ipmap::IpAsnMap;
use ddos_astopo::AsGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, PoisonError};

/// Tuning knobs for [`CorpusStream`]. The defaults (64-day chunks, auto
/// parallelism) are right for anything bigger than a toy corpus; smaller
/// chunks shrink the reorder buffer at the cost of more rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Days generated per family per round (at least 1).
    pub chunk_days: u32,
    /// Worker threads for the per-family fan-out; `None` = all cores.
    /// **Never changes the output** — results reduce in family order.
    pub parallelism: Option<usize>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { chunk_days: 64, parallelism: None }
    }
}

/// A pull-based iterator over a family-partitioned corpus in final order.
///
/// Yields `Result<AttackRecord>` with dense chronological ids, exactly as
/// [`crate::TraceGenerator::generate_partitioned`] would store them, while
/// holding only one generation window plus a reorder buffer in memory. The
/// substrate (catalog, topology, address plan, targets) stays resident and
/// is exposed through accessors so consumers can resolve records without a
/// [`crate::Corpus`].
///
/// # Example
///
/// ```
/// use ddos_trace::stream::CorpusStream;
/// use ddos_trace::CorpusConfig;
///
/// # fn main() -> Result<(), ddos_trace::TraceError> {
/// let n = CorpusStream::new(CorpusConfig::small(), 7)?
///     .map(|r| r.map(|_| 1u64))
///     .sum::<Result<u64, _>>()?;
/// assert!(n > 0);
/// # Ok(())
/// # }
/// ```
pub struct CorpusStream {
    families: Vec<Mutex<FamilyGen>>,
    catalog: FamilyCatalog,
    topology: AsGraph,
    ipmap: IpAsnMap,
    targets: Arc<TargetPopulation>,
    days: u32,
    options: StreamOptions,
    next_day: u32,
    pending: Vec<AttackRecord>,
    ready: std::collections::VecDeque<AttackRecord>,
    next_id: u64,
    fused: bool,
}

impl CorpusStream {
    /// Opens a stream with default [`StreamOptions`].
    ///
    /// # Errors
    ///
    /// Propagates configuration, topology and sampling errors.
    pub fn new(config: CorpusConfig, seed: u64) -> Result<Self> {
        CorpusStream::with_options(config, seed, StreamOptions::default())
    }

    /// Opens a stream with explicit chunking and parallelism.
    ///
    /// # Errors
    ///
    /// Propagates configuration, topology and sampling errors; rejects a
    /// zero `chunk_days`.
    pub fn with_options(config: CorpusConfig, seed: u64, options: StreamOptions) -> Result<Self> {
        if options.chunk_days == 0 {
            return Err(TraceError::InvalidConfig {
                detail: "chunk_days must be nonzero".to_string(),
            });
        }
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let substrate = build_substrate(&config, seed, &mut rng)?;
        let families = config
            .catalog
            .iter()
            .map(|(family, profile)| {
                let rng = StdRng::seed_from_u64(family_seed(seed, family.0));
                FamilyGen::new(family, profile, &config, seed, &substrate, rng).map(Mutex::new)
            })
            .collect::<Result<Vec<_>>>()?;
        let Substrate { topology, ipmap, targets, .. } = substrate;
        Ok(CorpusStream {
            families,
            catalog: config.catalog,
            topology,
            ipmap,
            targets,
            days: config.days,
            options,
            next_day: 0,
            pending: Vec::new(),
            ready: std::collections::VecDeque::new(),
            next_id: 0,
            fused: false,
        })
    }

    /// The family catalog behind the stream.
    pub fn catalog(&self) -> &FamilyCatalog {
        &self.catalog
    }

    /// The synthetic AS-level topology.
    pub fn topology(&self) -> &AsGraph {
        &self.topology
    }

    /// Longest-prefix IP → AS mapping.
    pub fn ip_map(&self) -> &IpAsnMap {
        &self.ipmap
    }

    /// The target population.
    pub fn targets(&self) -> &TargetPopulation {
        &self.targets
    }

    /// Observation-window length in days.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// Records yielded so far.
    pub fn emitted(&self) -> u64 {
        self.next_id
    }

    /// Runs one generation round (every family advances `chunk_days`),
    /// then drains every pending record that no family can still precede
    /// into the ready queue in final order.
    fn pump(&mut self) -> Result<()> {
        let exhausted = self.next_day >= self.days;
        let bound = if exhausted {
            // No family can produce anything further; drain everything.
            self.families
                .iter()
                .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner).start_lower_bound())
                .min()
                .unwrap_or(u64::MAX)
        } else {
            let until = self.days.min(self.next_day.saturating_add(self.options.chunk_days));
            let results = ddos_stats::exec::map_indexed(
                &self.families,
                self.options.parallelism,
                |_, slot: &Mutex<FamilyGen>| -> Result<(Vec<AttackRecord>, u64)> {
                    let mut fam = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    let mut out = Vec::new();
                    fam.advance(until, &mut out)?;
                    Ok((out, fam.start_lower_bound()))
                },
            );
            self.next_day = until;
            // Index-order reduction: family 0's chunk lands before family
            // 1's regardless of which worker finished first.
            let mut bound = u64::MAX;
            for result in results {
                let (records, lb) = result?;
                self.pending.extend(records);
                bound = bound.min(lb);
            }
            bound
        };

        // Final order is the stable sort by (start, family, target) over
        // catalog-order concatenation; the per-family sequence number
        // stashed in `id` reproduces that stability under an unstable key.
        self.pending.sort_unstable_by_key(|a| (a.start, a.family, a.target, a.id));
        let cut = self.pending.partition_point(|a| a.start.as_secs() < bound);
        for mut record in self.pending.drain(..cut) {
            record.id = AttackId(self.next_id);
            self.next_id += 1;
            self.ready.push_back(record);
        }
        Ok(())
    }
}

impl Iterator for CorpusStream {
    type Item = Result<AttackRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        loop {
            if let Some(record) = self.ready.pop_front() {
                return Some(Ok(record));
            }
            if self.next_day >= self.days && self.pending.is_empty() {
                self.fused = true;
                return None;
            }
            if let Err(e) = self.pump() {
                self.fused = true;
                return Some(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;

    fn reference(seed: u64) -> crate::Corpus {
        TraceGenerator::new(CorpusConfig::small(), seed).generate_partitioned().unwrap()
    }

    #[test]
    fn zero_chunk_days_is_a_typed_error() {
        let opts = StreamOptions { chunk_days: 0, parallelism: None };
        let Err(err) = CorpusStream::with_options(CorpusConfig::small(), 1, opts) else {
            panic!("zero chunk_days accepted");
        };
        assert!(matches!(
            err,
            crate::TraceError::InvalidConfig { ref detail } if detail.contains("chunk_days")
        ));
    }

    #[test]
    fn stream_matches_partitioned_generation_bit_for_bit() {
        let corpus = reference(42);
        let streamed: Vec<AttackRecord> =
            CorpusStream::new(CorpusConfig::small(), 42).unwrap().collect::<Result<_>>().unwrap();
        assert_eq!(streamed.len(), corpus.len());
        for (s, c) in streamed.iter().zip(corpus.attacks()) {
            assert_eq!(s, c);
        }
    }

    #[test]
    fn worker_count_and_chunking_never_change_the_stream() {
        let baseline: Vec<AttackRecord> =
            CorpusStream::new(CorpusConfig::small(), 9).unwrap().collect::<Result<_>>().unwrap();
        for (chunk_days, parallelism) in [(1, Some(1)), (7, Some(4)), (200, Some(2)), (13, None)] {
            let opts = StreamOptions { chunk_days, parallelism };
            let run: Vec<AttackRecord> = CorpusStream::with_options(CorpusConfig::small(), 9, opts)
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            assert_eq!(run, baseline, "diverged at chunk={chunk_days} par={parallelism:?}");
        }
    }

    #[test]
    fn stream_is_chronological_with_dense_ids() {
        let records: Vec<AttackRecord> =
            CorpusStream::new(CorpusConfig::small(), 11).unwrap().collect::<Result<_>>().unwrap();
        assert!(!records.is_empty());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.id, AttackId(i as u64));
            assert!(r.is_consistent());
        }
        for w in records.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn partitioned_generation_is_deterministic_and_plausible() {
        let a = reference(5);
        let b = reference(5);
        assert_eq!(a, b);
        let expected: f64 =
            CorpusConfig::small().catalog.iter().map(|(_, f)| f.expected_attacks()).sum();
        let n = a.len() as f64;
        assert!(n > expected * 0.5 && n < expected * 1.6, "{n} vs {expected}");
    }

    #[test]
    fn zero_chunk_rejected() {
        let opts = StreamOptions { chunk_days: 0, parallelism: None };
        assert!(CorpusStream::with_options(CorpusConfig::small(), 1, opts).is_err());
    }
}
