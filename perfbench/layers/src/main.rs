//! `perfbench-layers` — per-layer timings for the perfbench workloads.
//!
//! ```text
//! perfbench-layers gen-mtx --seed N --scale S --out DIR
//! perfbench-layers seeds --seed N --scale S --corpus M --segments T --count K
//! perfbench-layers measure --workload batch|serve|sim --work DIR
//!                          [--spec FILE]... [--requests FILE]
//!                          [--sim-seed N --sim-scale S --ways W]
//! ```
//!
//! `gen-mtx` writes the simulate-sweep inputs: one matrix per §3.1
//! working-set class (1, 2, 3a, 3b) at machine scale `S`, drawn from the
//! corpus crate's structural families with seeds derived from `N`.
//!
//! `seeds` prints `K` corpus seeds for fixed-size inputs: counting up
//! from `1000 N`, the seeds whose `corpus count=M` has its largest matrix
//! within 3 % of `T` scaled L2 segments of CSR data. The corpus jitters
//! each matrix's size by up to half a slot of its log-uniform size range
//! (1.25 to 40 segments), which for one matrix spans the whole range: the
//! seed alone would change a run's work and peak memory.
//!
//! `measure` resolves the workload's own inputs — the batch spec files,
//! the serve request lines, or the simulate check specs — and times calls
//! into each crate's public functions on them. It prints one JSON object
//! of per-layer metrics plus `layer_sum_s`: the layer time one operation
//! of the workload is expected to spend (a serial `batch` round, one serve
//! request, one `simulate` invocation), which the runner subtracts from
//! the operation's measured wall time to get the unattributed residual.

use a64fx::sim_spmv::replay_round_robin;
use a64fx::{Machine, MachineConfig};
use locality_core::{Method, Prediction, SectorSetting, TrackedCaps};
use locality_engine::{
    compute_profile_sharded, ecm_for, BatchSpec, MatrixSource, ProfileCache, ProfileKey, Report,
    StreamStats,
};
use machine::{HierarchyConfig, MachineSpec};
use memtrace::interleave::round_robin_cursors_blocks;
use memtrace::spmv_trace::trace_spmv_partitioned;
use memtrace::{AccessBlock, ArraySet, BlockSink, SpmvWorkload, TraceCursor, BLOCK_REFS};
use reuse::{LineTable, MarkerStack};
use serve::{Frame, LineFramer, Request};
use sparsemat::{CsrMatrix, RowPartition};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Thread count whose domain-interleaved streams the interleave layer
/// replays: the modelled A64FX's 48 cores in four 12-core domains.
const INTERLEAVE_THREADS: usize = 48;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-layers gen-mtx --seed N --scale S --out DIR\n\
         \x20      perfbench-layers seeds --seed N --scale S --corpus M --segments T --count K\n\
         \x20      perfbench-layers measure --workload batch|serve|sim --work DIR \
         [--spec FILE]... [--requests FILE] [--sim-seed N --sim-scale S --ways W]"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("perfbench-layers: {msg}");
    std::process::exit(1);
}

/// Flag parser: `--key value` pairs; repeated keys accumulate.
fn parse_flags(args: &[String]) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").unwrap_or_else(|| usage());
        let value = it.next().unwrap_or_else(|| usage());
        out.entry(key.to_string()).or_default().push(value.clone());
    }
    out
}

fn one<T: std::str::FromStr>(flags: &BTreeMap<String, Vec<String>>, key: &str) -> T {
    flags
        .get(key)
        .and_then(|v| v.last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fail(format!("missing or malformed --{key}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let flags = parse_flags(&args[1..]);
    match command.as_str() {
        "gen-mtx" => gen_mtx(&flags),
        "seeds" => seeds(&flags),
        "measure" => measure(&flags),
        _ => usage(),
    }
}

/// The simulate-sweep matrices at machine scale `scale`: one per working-
/// set class, sized against the scaled L2 segment (`8 MiB / scale`) and
/// its sector-0 partition at 5 sector-1 ways (11 of 16 ways). Sizes are
/// fixed so every seed does the same amount of work; the seed varies the
/// structure.
fn sim_set(seed: u64, scale: usize) -> Vec<(String, CsrMatrix)> {
    let segment = (8usize << 20) / scale;
    let s = |k: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
    // Class 1: whole working set (84 B/row at 5 nnz/row) in 0.8 segment.
    let n1 = segment * 8 / 10 / 84;
    // Class 2: reusable x+y+rowptr (24 B/row) in half a segment.
    let n2 = segment / 2 / 24;
    // Class 3a: reusable data past the partition, x alone inside it.
    let n3a = segment * 6 / 100;
    // Class 3b: x alone (8 B/row) at 0.96 segment, past the partition.
    let n3b = segment * 12 / 100;
    vec![
        (
            "c1-banded".to_string(),
            corpus::banded::random_banded(n1, (n1 / 16).max(8), 5, s(1)),
        ),
        (
            "c2-banded".to_string(),
            corpus::banded::random_banded(n2, (n2 / 16).max(8), 24, s(2)),
        ),
        (
            "c3a-circuit".to_string(),
            corpus::banded::tridiag_plus_random(n3a, 3, s(3)),
        ),
        (
            "c3b-random".to_string(),
            corpus::random::uniform_random(n3b, 4, s(4)),
        ),
    ]
}

fn gen_mtx(flags: &BTreeMap<String, Vec<String>>) {
    let seed: u64 = one(flags, "seed");
    let scale: usize = one(flags, "scale");
    let dir = PathBuf::from(one::<String>(flags, "out"));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(format!("{}: {e}", dir.display())));
    for (name, m) in sim_set(seed, scale) {
        let path = dir.join(format!("{name}.mtx"));
        write_mtx(&path, &m);
        println!("{}", path.display());
    }
}

fn seeds(flags: &BTreeMap<String, Vec<String>>) {
    let seed: u64 = one(flags, "seed");
    let scale: usize = one(flags, "scale");
    let matrices: usize = one(flags, "corpus");
    let segments: f64 = one(flags, "segments");
    let count: usize = one(flags, "count");
    let target = segments * ((8usize << 20) / scale) as f64;
    let first = seed.saturating_mul(1000);
    let mut found = 0;
    // About one candidate in sixty fits a one-matrix corpus; the bound
    // only stops a search that cannot succeed.
    for candidate in first..first.saturating_add(10_000) {
        let largest = corpus::corpus(matrices, scale, candidate)
            .iter()
            .map(|nm| nm.matrix.matrix_bytes())
            .max()
            .unwrap_or(0) as f64;
        if (largest / target - 1.0).abs() <= 0.03 {
            println!("{candidate}");
            found += 1;
            if found == count {
                return;
            }
        }
    }
    fail(format!(
        "only {found} of {count} corpus seeds from {first} have a largest matrix of {segments} segments"
    ));
}

fn write_mtx(path: &Path, m: &CsrMatrix) {
    let file =
        std::fs::File::create(path).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
    let mut w = std::io::BufWriter::new(file);
    sparsemat::mm::write_csr(&mut w, m)
        .and_then(|()| std::io::Write::flush(&mut w))
        .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
}

/// One resolved batch spec: its matrices (in the engine's source order)
/// and the machine it is modelled on.
struct Resolved {
    spec: BatchSpec,
    text: String,
    matrices: Vec<(String, CsrMatrix)>,
    cfg: MachineConfig,
    hier: HierarchyConfig,
}

/// Busy seconds of one layer and the units of work they covered (calls,
/// matrices or references).
#[derive(Default)]
struct Acc {
    secs: f64,
    work: f64,
}

impl Acc {
    fn add(&mut self, secs: f64, work: f64) {
        self.secs += secs;
        self.work += work;
    }

    /// Seconds per unit of work, scaled by `unit` (1e3 for ms, ...).
    fn per(&self, unit: f64) -> f64 {
        self.secs / self.work.max(1.0) * unit
    }
}

/// Busy time per layer, summed over every call made.
#[derive(Default)]
struct Tally {
    generate: Acc,
    mm_read: Acc,
    fingerprint: Acc,
    profile_a: Acc,
    profile_b: Acc,
    evaluate: Acc,
    ecm: Acc,
    hit: Acc,
    decode: Acc,
    encode: Acc,
    cursor: Acc,
    interleave: Acc,
    probe: Acc,
    marker: Acc,
    materialize: Acc,
    replay: Acc,
    shard1: Acc,
    shard2: Acc,
}

/// Mean seconds per call of `f` over `reps` calls.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

fn machine_of(scale: usize, threads: usize) -> (MachineConfig, HierarchyConfig) {
    let hier = MachineSpec::A64fx
        .hierarchy(scale)
        .with_cores(threads.max(1));
    (MachineConfig::from_hierarchy(&hier), hier)
}

/// Counts references without looking at them: the interleave layer's
/// sink, so its timing holds only generation and merging.
struct CountBlocks(u64);

impl BlockSink for CountBlocks {
    fn consume(&mut self, block: &AccessBlock) {
        self.0 += block.len() as u64;
    }
}

/// The request line a serve client sends for `spec_text`.
fn request_line(id: &str, spec_text: &str) -> String {
    let mut escaped = String::with_capacity(spec_text.len() + 8);
    for c in spec_text.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            c => escaped.push(c),
        }
    }
    format!("{{\"id\":\"{id}\",\"spec\":\"{escaped}\"}}")
}

/// Serve decode layer: framing, JSON and request parse, then the spec
/// parse the daemon runs on admission. Returns the parsed spec text.
fn decode(line: &str) -> String {
    let mut framer = LineFramer::new(1 << 20);
    let mut bytes = line.as_bytes().to_vec();
    bytes.push(b'\n');
    let frames = framer.push(&bytes);
    let Some(Frame::Line(text)) = frames.into_iter().next() else {
        fail("request line did not frame")
    };
    match Request::parse(&text) {
        Ok(Request::Predict { spec, .. }) => {
            BatchSpec::parse(&spec).unwrap_or_else(|e| fail(format!("request spec: {e}")));
            spec
        }
        _ => fail(format!("not a predict request: {text}")),
    }
}

fn resolve(text: &str, tally: &mut Tally) -> Resolved {
    let spec = BatchSpec::parse(text).unwrap_or_else(|e| fail(format!("spec: {e}")));
    let mut matrices = Vec::new();
    for source in &spec.sources {
        match source {
            MatrixSource::Corpus { count, scale, seed } => {
                let t = Instant::now();
                let suite = corpus::corpus(*count, *scale, *seed);
                tally
                    .generate
                    .add(t.elapsed().as_secs_f64(), suite.len() as f64);
                matrices.extend(suite.into_iter().map(|nm| (nm.name, nm.matrix)));
            }
            MatrixSource::MtxFile(path) => {
                let t = Instant::now();
                let m = sparsemat::mm::read_csr_file(path)
                    .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
                tally.mm_read.add(t.elapsed().as_secs_f64(), 1.0);
                let name = path
                    .file_stem()
                    .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
                matrices.push((name, m));
            }
            MatrixSource::Table1 { .. } => fail("table1 sources are not part of any workload"),
        }
    }
    let (cfg, hier) = machine_of(spec.scale, spec.threads);
    Resolved {
        spec,
        text: text.to_string(),
        matrices,
        cfg,
        hier,
    }
}

/// Times the model-side layers of one resolved spec, as one serial
/// (`--workers 1`) run of it would call them. Returns the layer time one
/// run of the spec spends in them.
fn model_layers(r: &Resolved, tally: &mut Tally, serve: bool) -> f64 {
    let spec = &r.spec;
    let mut op_s = 0.0;
    let line = request_line("r0", &r.text);
    let dec = per_call(200, || {
        black_box(decode(black_box(&line)));
    });
    tally.decode.add(dec * 200.0, 200.0);
    if serve {
        op_s += dec;
    }
    for (name, m) in &r.matrices {
        let fp_reps = 5;
        let fp = per_call(fp_reps, || {
            black_box(black_box(m).fingerprint());
        });
        tally.fingerprint.add(fp * fp_reps as f64, fp_reps as f64);
        let fingerprint = m.fingerprint();
        let jobs = spec.methods.len() * spec.settings.len();
        // The batch path fingerprints each matrix once; the serve path
        // once per job.
        op_s += fp * if serve { jobs as f64 } else { 1.0 };
        let cache = ProfileCache::new();
        let caps = TrackedCaps::for_sweep(&r.cfg, &spec.settings).fingerprint();
        for &method in &spec.methods {
            let t = Instant::now();
            let profile = compute_profile_sharded(
                m,
                &r.cfg,
                method,
                spec.threads,
                Some(&spec.settings),
                1,
                None,
            );
            let dt = t.elapsed().as_secs_f64();
            match method {
                Method::A => tally.profile_a.add(dt, 1.0),
                Method::B => tally.profile_b.add(dt, 1.0),
            }
            // The serve path finds every profile in its warm cache.
            if !serve {
                op_s += dt;
            }
            let key = ProfileKey {
                fingerprint,
                method,
                threads: spec.threads,
                line_bytes: r.cfg.l2.line_bytes,
                cores_per_domain: r.cfg.cores_per_domain,
                caps_fingerprint: if method == Method::A { caps } else { 0 },
                machine_tag: 0,
            };
            cache.get_or_compute(key, || profile.clone());
            let hit_reps = 2000;
            let hit = per_call(hit_reps, || {
                black_box(cache.get_or_compute(black_box(key), || unreachable!("warm key")));
            });
            tally.hit.add(hit * hit_reps as f64, hit_reps as f64);
            for (i, &setting) in spec.settings.iter().enumerate() {
                let ev_reps = 20;
                let ev = per_call(ev_reps, || {
                    black_box(profile.evaluate(&r.cfg, black_box(&[setting])));
                });
                tally.evaluate.add(ev * ev_reps as f64, ev_reps as f64);
                let prediction: Prediction = profile.evaluate(&r.cfg, &[setting])[0];
                let ecm_reps = 50;
                let ecm = per_call(ecm_reps, || {
                    black_box(ecm_for(m, &r.hier, black_box(&prediction)));
                });
                tally.ecm.add(ecm * ecm_reps as f64, ecm_reps as f64);
                let report = Report {
                    id: i,
                    matrix: name.clone(),
                    fingerprint,
                    rows: m.num_rows(),
                    cols: m.num_cols(),
                    nnz: m.nnz(),
                    method,
                    setting,
                    threads: spec.threads,
                    prediction,
                    machine: None,
                    ecm: spec.ecm.then(|| ecm_for(m, &r.hier, &prediction)),
                };
                let enc_reps = 50;
                let enc = per_call(enc_reps, || {
                    black_box(serve::protocol::report_line(
                        "r0",
                        &black_box(&report).to_json_line(),
                    ));
                });
                tally.encode.add(enc * enc_reps as f64, enc_reps as f64);
                op_s += hit + ev + ecm + enc;
            }
        }
    }
    let stats = StreamStats {
        matrices: r.matrices.len(),
        jobs: r.matrices.len() * spec.methods.len() * spec.settings.len(),
        profile_computations: 0,
        profile_hits: 0,
    };
    op_s += per_call(50, || {
        black_box(serve::protocol::done_line("r0", black_box(&stats)));
    });
    op_s
}

/// Times the trace and reuse layers on one matrix: cursor generation, the
/// domain interleave, the line-table probe and the marker-stack update.
fn trace_layers(m: &CsrMatrix, scale: usize, settings: &[SectorSetting], tally: &mut Tally) {
    let (cfg, _) = machine_of(scale, 1);
    let layout = m.layout(cfg.l2.line_bytes);

    // Cursor: the whole-matrix (threads 1) stream, block by block.
    let mut refs: Vec<u64> = Vec::new();
    let mut packed = Vec::new();
    let t = Instant::now();
    let mut cursor = m.trace_cursor(&layout, 0..m.num_rows());
    let mut block = AccessBlock::new();
    let mut n = 0u64;
    while cursor.next_block(&mut block) > 0 {
        n += block.len() as u64;
        block.clear();
    }
    let cursor_s = t.elapsed().as_secs_f64();
    tally.cursor.add(cursor_s, n as f64);
    let cursor_per_ref = cursor_s / n.max(1) as f64;

    // Interleave: each domain's cursors merged round robin, minus the
    // generation time the cursor layer already accounts for.
    let (cfg48, _) = machine_of(scale, INTERLEAVE_THREADS);
    let partition = RowPartition::static_rows(m.num_rows(), INTERLEAVE_THREADS);
    let blocks: Vec<_> = partition.iter().collect();
    let mut sink = CountBlocks(0);
    let t = Instant::now();
    for domain in blocks.chunks(cfg48.cores_per_domain.max(1)) {
        let mut cursors: Vec<_> = domain
            .iter()
            .map(|rows| m.trace_cursor(&layout, rows.clone()))
            .collect();
        round_robin_cursors_blocks(&mut cursors, &mut sink);
    }
    let merged = t.elapsed().as_secs_f64();
    tally
        .interleave
        .add(merged - cursor_per_ref * sink.0 as f64, sink.0 as f64);

    // Buffer the threads-1 stream for the reuse layers.
    let mut cursor = m.trace_cursor(&layout, 0..m.num_rows());
    while cursor.next_block(&mut block) > 0 {
        refs.extend(block.refs().iter().map(|p| p.line()));
        packed.extend_from_slice(block.refs());
        block.clear();
    }

    // Probe: the hash line index the marker stacks fall back to for
    // large layouts, holding every line of the layout.
    let lines = layout.total_lines() as usize;
    let mut table = LineTable::with_capacity(lines);
    for line in 0..lines {
        table.insert(line as u64, line as u32);
    }
    let mut out = vec![0u32; BLOCK_REFS];
    let t = Instant::now();
    for chunk in refs.chunks(BLOCK_REFS) {
        table.probe_block(black_box(chunk), &mut out[..chunk.len()]);
        black_box(&out);
    }
    tally
        .probe
        .add(t.elapsed().as_secs_f64(), refs.len() as f64);

    // Marker: the unpartitioned capacity grid of the sweep.
    let caps = TrackedCaps::for_sweep(&cfg, settings);
    let grid = if caps.shared.is_empty() {
        &caps.part0
    } else {
        &caps.shared
    };
    if !grid.is_empty() {
        let mut stack = MarkerStack::with_line_universe(grid, lines);
        let t = Instant::now();
        for chunk in packed.chunks(BLOCK_REFS) {
            stack.access_block(chunk);
        }
        tally
            .marker
            .add(t.elapsed().as_secs_f64(), packed.len() as f64);
        black_box(stack.misses(0));
    }
}

/// Times the engine's intra-matrix sharding: a threads-1 method (A)
/// profile at 1 and 2 capacity shards over a 2-worker pool.
fn shard_layers(m: &CsrMatrix, scale: usize, settings: &[SectorSetting], tally: &mut Tally) {
    let (cfg, _) = machine_of(scale, 1);
    for shards in [1, 2] {
        let t = Instant::now();
        black_box(compute_profile_sharded(
            m,
            &cfg,
            Method::A,
            1,
            Some(settings),
            2,
            Some(shards),
        ));
        let acc = if shards == 1 {
            &mut tally.shard1
        } else {
            &mut tally.shard2
        };
        acc.add(t.elapsed().as_secs_f64(), 1.0);
    }
}

/// Times the simulator path of `spmv-locality simulate`: materialized
/// per-thread traces, then a warm-up and a measured replay. Returns the
/// seconds one invocation spends in them, per sector setting.
fn sim_layers(
    m: &CsrMatrix,
    scale: usize,
    threads: usize,
    ways: &[usize],
    tally: &mut Tally,
) -> Vec<f64> {
    let (cfg, _) = machine_of(scale, threads);
    let layout = m.layout(cfg.l2.line_bytes);
    let partition = RowPartition::static_rows(m.num_rows(), threads.max(1));
    let t = Instant::now();
    let traces = trace_spmv_partitioned(m, &layout, &partition);
    let materialize = t.elapsed().as_secs_f64();
    let refs: u64 = traces.iter().map(|t| t.len() as u64).sum();
    tally.materialize.add(materialize, refs as f64);
    ways.iter()
        .map(|&w| {
            let (cfg_w, sector1) = if w > 0 {
                (cfg.clone().with_l2_sector(w), ArraySet::MATRIX_STREAM)
            } else {
                (cfg.clone(), ArraySet::EMPTY)
            };
            let mut machine = Machine::new(cfg_w.with_cores(threads.max(1)), sector1);
            let t = Instant::now();
            replay_round_robin(&mut machine, &traces);
            machine.reset_stats();
            replay_round_robin(&mut machine, &traces);
            let replay = t.elapsed().as_secs_f64();
            black_box(machine.pmu());
            tally.replay.add(replay, (2 * refs) as f64);
            materialize + replay
        })
        .collect()
}

/// Writes `m` as MatrixMarket into `work` and times reading it back.
fn mm_read_layer(m: &CsrMatrix, work: &Path, tally: &mut Tally) {
    let path = work.join("layers-read.mtx");
    write_mtx(&path, m);
    let t = Instant::now();
    black_box(
        sparsemat::mm::read_csr_file(&path)
            .unwrap_or_else(|e| fail(format!("{}: {e}", path.display()))),
    );
    tally.mm_read.add(t.elapsed().as_secs_f64(), 1.0);
    let _ = std::fs::remove_file(&path);
}

fn read_lines(path: &str) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("{path}: {e}")))
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

fn measure(flags: &BTreeMap<String, Vec<String>>) {
    let workload: String = one(flags, "workload");
    let work = PathBuf::from(one::<String>(flags, "work"));
    std::fs::create_dir_all(&work).unwrap_or_else(|e| fail(format!("{}: {e}", work.display())));
    let mut tally = Tally::default();
    let texts: Vec<String> = match workload.as_str() {
        "serve" => read_lines(&one::<String>(flags, "requests"))
            .iter()
            .map(|l| decode(l))
            .collect(),
        "batch" | "sim" => flags
            .get("spec")
            .unwrap_or_else(|| fail("--spec is required"))
            .iter()
            .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| fail(format!("{p}: {e}"))))
            .collect(),
        _ => usage(),
    };
    let resolved: Vec<Resolved> = texts.iter().map(|t| resolve(t, &mut tally)).collect();

    // The simulate workload's matrices come from files; time generating
    // them as gen-mtx does.
    if workload == "sim" {
        let seed: u64 = one(flags, "sim-seed");
        let scale: usize = one(flags, "sim-scale");
        let t = Instant::now();
        let set = sim_set(seed, scale);
        tally
            .generate
            .add(t.elapsed().as_secs_f64(), set.len() as f64);
    }

    // Model layers, and the layer time of one operation.
    let mut op_s: Vec<f64> = Vec::new();
    for r in &resolved {
        op_s.push(model_layers(r, &mut tally, workload == "serve"));
    }

    // Distinct matrices (the threads-1 and threads-48 specs of a batch
    // round name the same corpus) for the matrix-level layers.
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<(&Resolved, &CsrMatrix)> = resolved
        .iter()
        .flat_map(|r| r.matrices.iter().map(move |(_, m)| (r, m)))
        .filter(|(_, m)| seen.insert(m.fingerprint()))
        .collect();
    for &(r, m) in &distinct {
        trace_layers(m, r.spec.scale, &r.spec.settings, &mut tally);
        shard_layers(m, r.spec.scale, &r.spec.settings, &mut tally);
    }

    // The sources every spec resolved, before the reader layer below
    // adds its own reads.
    let resolve_s = tally.generate.secs + tally.mm_read.secs;
    if workload != "sim" {
        for &(r, m) in &distinct {
            sim_layers(m, r.spec.scale, r.spec.threads, &[0], &mut tally);
            mm_read_layer(m, &work, &mut tally);
        }
    }
    let layer_sum_s = match workload.as_str() {
        // One serial round: every spec once.
        "batch" => op_s.iter().sum::<f64>() + resolve_s,
        // One request: decode, resolve, per-job model layers, encode.
        "serve" => (op_s.iter().sum::<f64>() + resolve_s) / op_s.len() as f64,
        // One simulate invocation: read, materialize, replay.
        _ => {
            let ways: usize = one(flags, "ways");
            let mut per_op = Vec::new();
            let read_each = tally.mm_read.per(1.0);
            for r in &resolved {
                for (_, m) in &r.matrices {
                    for s in sim_layers(m, r.spec.scale, r.spec.threads, &[0, ways], &mut tally) {
                        per_op.push(read_each + s);
                    }
                }
            }
            per_op.iter().sum::<f64>() / per_op.len().max(1) as f64
        }
    };

    let t = &tally;
    let metrics: Vec<(&str, f64)> = vec![
        ("corpus.generate_ms", t.generate.per(1e3)),
        ("sparsemat.fingerprint_ms", t.fingerprint.per(1e3)),
        ("sparsemat.mm_read_ms", t.mm_read.per(1e3)),
        ("memtrace.cursor_ns_per_ref", t.cursor.per(1e9)),
        ("memtrace.interleave_ns_per_ref", t.interleave.per(1e9)),
        ("memtrace.materialize_ns_per_ref", t.materialize.per(1e9)),
        ("reuse.probe_ns_per_ref", t.probe.per(1e9)),
        ("reuse.marker_ns_per_ref", t.marker.per(1e9)),
        ("core.profile_a_ms", t.profile_a.per(1e3)),
        ("core.profile_b_ms", t.profile_b.per(1e3)),
        ("core.evaluate_us", t.evaluate.per(1e6)),
        ("machine.ecm_us", t.ecm.per(1e6)),
        ("engine.cache_hit_us", t.hit.per(1e6)),
        ("engine.shard1_profile_ms", t.shard1.per(1e3)),
        ("engine.shard2_profile_ms", t.shard2.per(1e3)),
        (
            "engine.shard2_speedup",
            t.shard1.secs / t.shard2.secs.max(1e-12),
        ),
        ("a64fx.replay_ns_per_ref", t.replay.per(1e9)),
        ("serve.decode_us", t.decode.per(1e6)),
        ("serve.encode_us", t.encode.per(1e6)),
        ("layer_sum_s", layer_sum_s),
    ];
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:.6}"))
        .collect();
    println!("{{{}}}", body.join(", "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip_through_decode() {
        let spec = "corpus count=1 scale=64 seed=3\nmethods A,B\nsettings paper\nscale 64\n";
        assert_eq!(decode(&request_line("r0", spec)), spec);
    }

    #[test]
    fn sim_set_covers_the_four_classes() {
        use locality_core::{classify_for, MatrixClass};
        let scale = 64;
        let (cfg, _) = machine_of(scale, 1);
        let cfg = cfg.with_l2_sector(5);
        let classes: Vec<MatrixClass> = sim_set(7, scale)
            .iter()
            .map(|(_, m)| classify_for(m, &cfg, 1))
            .collect();
        assert_eq!(
            classes,
            [
                MatrixClass::Class1,
                MatrixClass::Class2,
                MatrixClass::Class3a,
                MatrixClass::Class3b
            ]
        );
    }
}
