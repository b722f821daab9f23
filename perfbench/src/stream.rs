//! `stream-columnar`: the corpus producer's run.
//!
//! The input is the `scalecheck` smoke configuration — the
//! internet-scale family catalog on the paper-scale topology — over a
//! window shortened to 150 days (36,002 records), generated at
//! [`CORPUS_SEED`]. It does not depend on `--seed`: the volume and
//! record size of a stream swing by a fifth or more with its generator
//! seed, even summed over 32 independently seeded short streams, so a
//! seeded stream would be an input of a different size on every run.
//! Set-up builds the stream's substrate (topology, address plan, targets,
//! per-family generators). One pass streams the window through a
//! `ColumnarWriter` into a file, then reads the file back group by group
//! with a `ColumnarReader`, which verifies the checksummed footer.
//!
//! `result_s` is the write half of a pass (generation, encoding, file
//! writes); `items_per_s` is records read back per second. It is the
//! only workload that writes and then reads one format, so a codec change
//! that speeds one direction and slows the other shows here. Models and
//! Eq. 4 are bypassed.

use crate::span::Tracer;
use crate::{
    finish_trace, median, passes, repeated_setup, timed, Outcome, Params, TempDir, CORPUS_SEED,
};
use ddos_adversary::trace::{
    AttackRecord, ColumnarReader, ColumnarWriter, CorpusConfig, CorpusStream, FamilyCatalog,
};
use std::hash::{Hash, Hasher};
use std::io::{BufReader, BufWriter};
use std::path::Path;

/// Days of the window: 36,002 records, so a pass takes about 2 s and a
/// run medians several.
const WINDOW_DAYS: u32 = 150;
/// Records pulled from the stream before they are handed to the writer.
const BLOCK: usize = 4_096;

fn corpus_config(params: &Params) -> CorpusConfig {
    if params.smoke {
        CorpusConfig::small()
    } else {
        CorpusConfig {
            days: WINDOW_DAYS,
            catalog: FamilyCatalog::internet(),
            ..CorpusConfig::standard()
        }
    }
}

/// Runs the workload; see the module docs.
///
/// # Errors
///
/// When the stream cannot be built, the temporary file cannot be created,
/// or the span file cannot be written.
pub fn run(params: &Params) -> Result<Outcome, String> {
    let tracer = Tracer::new(params.trace);
    let config = corpus_config(params);
    let open = || {
        tracer
            .span("trace.substrate", || CorpusStream::new(config.clone(), CORPUS_SEED))
            .map_err(|e| format!("stream construction failed: {e}"))
    };
    let ((), setup) = repeated_setup(params, || open().map(drop))?;
    let dir = TempDir::new(params, "stream")?;
    let path = dir.path().join("window.ddoscol");
    let mut outcome = Outcome::default();

    // Each pass streams from a fresh substrate; its write and read halves
    // are timed inside, so the build does not count.
    let untraced = Tracer::new(false);
    let runs = passes(params.seconds, || pass(open()?, &path, &untraced, &mut outcome));
    let peaks = runs.peak_mib;
    let runs: Vec<Pass> = runs.results.into_iter().collect::<Result<_, _>>()?;
    let write_s: Vec<f64> = runs.iter().map(|r| r.write_s).collect();
    if !params.trace {
        outcome.set_median("setup_s", setup);
        outcome.set_median("peak_rss_mib", peaks);
        outcome.set_median("result_s", write_s);
        outcome
            .set_median("items_per_s", runs.iter().map(|r| r.records as f64 / r.read_s).collect());
        return Ok(outcome);
    }

    let s = open()?;
    let root = tracer.spans().len();
    let traced = tracer.span("bench.pass", || pass(s, &path, &tracer, &mut outcome))?;
    outcome.set("bench.trace_overhead_ratio", traced.write_s / median(&write_s));
    outcome.set("trace.substrate_s", median(&setup));
    outcome.set("write_records_per_s", traced.records as f64 / traced.write_s);
    outcome.set("read_records_per_s", traced.records as f64 / traced.read_s);
    outcome.set("trace.stream_next_s", tracer.total("trace.stream_next").as_secs_f64());
    outcome.set(
        "trace.columnar_encode_s",
        (tracer.total("trace.columnar_encode") + tracer.total("trace.columnar_finish"))
            .as_secs_f64(),
    );
    outcome.set("trace.columnar_decode_s", tracer.total("trace.columnar_decode").as_secs_f64());
    outcome.set("trace.bytes_per_record", traced.bytes as f64 / traced.records.max(1) as f64);
    finish_trace(&mut outcome, &tracer, root, "stream-columnar", params)?;
    Ok(outcome)
}

/// What one pass measured.
struct Pass {
    records: u64,
    bytes: u64,
    write_s: f64,
    read_s: f64,
}

/// Streams every record into the file at `path`, then reads it back.
/// Every written record is one checked operation: the read-back count
/// and order-sensitive hash must match the written ones and the footer
/// must verify, or the whole pass counts as failed.
fn pass(
    stream: CorpusStream,
    path: &Path,
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> Result<Pass, String> {
    let (written, write_s) = timed(|| write(stream, path, tracer));
    let (written, complete) = written?;
    let (read, read_s) = timed(|| read(path, tracer));
    let ok =
        complete && read.as_ref().is_ok_and(|r| (r.count, r.hash) == (written.count, written.hash));
    outcome.check_many(written.count.max(1), if ok { 0 } else { written.count.max(1) });
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    Ok(Pass { records: written.count, bytes, write_s, read_s })
}

/// Count and hash of a record sequence.
struct Digest {
    count: u64,
    hash: u64,
}

/// Writes the stream to `path`; also returns whether every record the
/// stream yielded was `Ok`.
fn write(mut stream: CorpusStream, path: &Path, tracer: &Tracer) -> Result<(Digest, bool), String> {
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut writer = ColumnarWriter::new(BufWriter::new(file)).map_err(|e| e.to_string())?;
    let mut digest = Digest { count: 0, hash: 0 };
    let mut complete = true;
    let mut hash = RecordHash::default();
    let mut block: Vec<AttackRecord> = Vec::with_capacity(BLOCK);
    loop {
        tracer.span("trace.stream_next", || {
            for record in stream.by_ref().take(BLOCK) {
                match record {
                    Ok(r) => block.push(r),
                    Err(_) => complete = false,
                }
            }
        });
        if block.is_empty() {
            break;
        }
        digest.count += block.len() as u64;
        block.iter().for_each(|r| hash.record(r));
        tracer
            .span("trace.columnar_encode", || block.drain(..).try_for_each(|r| writer.push(r)))
            .map_err(|e| format!("columnar write failed: {e}"))?;
    }
    tracer
        .span("trace.columnar_finish", || -> Result<(), String> {
            let sink = writer.finish().map_err(|e| e.to_string())?;
            sink.into_inner().map(drop).map_err(|e| e.error().to_string())
        })
        .map_err(|e| format!("columnar finish failed: {e}"))?;
    digest.hash = hash.finish();
    Ok((digest, complete))
}

fn read(path: &Path, tracer: &Tracer) -> Result<Digest, String> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut reader = ColumnarReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut digest = Digest { count: 0, hash: 0 };
    let mut hash = RecordHash::default();
    // `Ok(None)` comes only after the footer's counts and checksum
    // verified.
    while let Some(group) =
        tracer.span("trace.columnar_decode", || reader.next_group()).map_err(|e| e.to_string())?
    {
        digest.count += group.len() as u64;
        group.iter().for_each(|r| hash.record(r));
    }
    digest.hash = hash.finish();
    Ok(digest)
}

/// Order-sensitive 64-bit hash over every field of a record sequence
/// (FNV-1a-style, one multiply per word).
#[derive(Debug)]
struct RecordHash(u64);

impl Default for RecordHash {
    fn default() -> Self {
        RecordHash(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for RecordHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }
}

impl RecordHash {
    fn record(&mut self, r: &AttackRecord) {
        r.id.hash(self);
        r.family.hash(self);
        r.target.hash(self);
        r.target_asn.hash(self);
        r.start.hash(self);
        r.duration_secs.hash(self);
        r.bots().hash(self);
        r.hourly_bot_counts.hash(self);
        r.multistage.hash(self);
        r.vector.hash(self);
    }
}
