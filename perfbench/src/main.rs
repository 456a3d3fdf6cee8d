//! End-to-end benchmark of the Hive serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One client thread drives three lanes in a closed loop, each call
//! waiting for the previous one:
//!
//! * **read**: the seeded read mix on the workload's serving node;
//! * **write**: one accepted mutation plus `HiveServer::publish` on a
//!   writer node;
//! * **replica**: a fresh `Follower` installing the leader's bootstrap
//!   checkpoint, then replaying the leader's ops frames one by one.
//!
//! A round is [`STEPS`] steps; a step is one replica unit, one write and
//! the workload's reads. Each round starts on a freshly set-up writer node
//! and sends it the same seeded writes, just as every replica cycle
//! replays the same log. Every round therefore holds the same operations
//! (one create per ten writes, one install and nine frames) on the same
//! world, and a run is whole rounds until `--seconds` have passed. The
//! workloads differ in which node serves the reads, in reads per step
//! and in frame size (see `README.md`).
//!
//! The last line of standard output is one JSON object: `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics of
//! a separate traced run.

mod reads;
mod stats;
mod trace;
mod writes;

use std::process::ExitCode;
use std::sync::Arc;

use hive_core::serve::{Epoch, HiveServer};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::HiveDb;
use hive_obs::Level;
use hive_replica::{frame, Follower, FramePayload, Ingest, Leader};

use reads::{fingerprint, ReadKind, ReadMix, ReadSamples};
use stats::{clock, median, window_rates, windowed_percentile};
use trace::{untraced, Tracer};
use writes::{witness, WriteClass, WriteGen, CREATE_EVERY};

/// Steps per round: one create per round of writes, and one install
/// plus `STEPS - 1` ops frames per replica cycle.
const STEPS: usize = CREATE_EVERY as usize;

/// Reads per throughput window.
const READ_WINDOW: usize = 100;

/// Searches per window of `search_p99_us`: each window's p99 has at
/// least five samples beyond it, and a run holds several windows.
const TAIL_WINDOW: usize = 500;

/// Seed offsets that keep the three seeded streams apart.
const READ_STREAM: u64 = 0x5EED_0001;
const WRITE_STREAM: u64 = 0x5EED_0002;
const LOG_STREAM: u64 = 0x5EED_0003;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Serving {
    /// A node that takes no writes; its PPR memo is warmed in set-up.
    Static,
    /// The writer node: reads land on the epoch its last write published.
    Writer,
    /// The replaying follower: reads land on its latest applied frame.
    Follower,
}

/// The world of the writer and the leader in every workload. The static
/// node of `serve_read` serves the large world, so that its users
/// outnumber any small memo bound; the write and replica lanes stay on
/// the medium world there too, so that reads take most of the run.
const LANE_WORLD: World = World {
    name: "medium",
    config: SimConfig::medium,
};
const STATIC_WORLD: World = World {
    name: "large",
    config: SimConfig::large,
};

#[derive(Clone, Copy)]
struct World {
    name: &'static str,
    config: fn() -> SimConfig,
}

struct Shape {
    serving: Serving,
    reads_per_step: usize,
    frame_writes: usize,
}

fn shape(workload: &str) -> Option<Shape> {
    Some(match workload {
        "serve_read" => Shape {
            serving: Serving::Static,
            reads_per_step: 40,
            frame_writes: 2,
        },
        "serve_mixed" => Shape {
            serving: Serving::Writer,
            reads_per_step: 20,
            frame_writes: 2,
        },
        "replica_catchup" => Shape {
            serving: Serving::Follower,
            reads_per_step: 20,
            frame_writes: 6,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One sealed ops frame of the leader's log.
struct LogFrame {
    wire: String,
    class: WriteClass,
    ops: usize,
}

/// What the leader produced in set-up.
struct Log {
    checkpoint: String,
    checkpoint_print: String,
    frames: Vec<LogFrame>,
    final_gen: u64,
    final_print: String,
    ops: usize,
}

fn seal_log(server: HiveServer, shape: &Shape, seed: u64) -> Result<Log, String> {
    let mut leader = Leader::from_server(server, 0, u64::MAX, 0);
    let boot = leader.seal_frames(true);
    let [cp] = boot.as_slice() else {
        return Err(format!("bootstrap sealed {} frames", boot.len()));
    };
    let checkpoint = frame::encode(cp);
    let checkpoint_print = fingerprint(&leader.reader().epoch());
    let mut gen = WriteGen::new(seed ^ LOG_STREAM);
    let mut frames = Vec::new();
    for _ in 1..STEPS {
        let mut class = WriteClass::Update;
        for _ in 0..shape.frame_writes {
            let (op, c) = gen.next(leader.hive().db());
            if c == WriteClass::Create {
                class = c;
            }
            let label = op.label();
            leader
                .apply(op)
                .map_err(|e| format!("leader refused {label}: {e}"))?;
        }
        let sealed = leader.seal_frames(false);
        let [f] = sealed.as_slice() else {
            return Err(format!("a batch sealed {} frames", sealed.len()));
        };
        frames.push(LogFrame {
            wire: frame::encode(f),
            class,
            ops: shape.frame_writes,
        });
    }
    Ok(Log {
        checkpoint,
        checkpoint_print,
        final_gen: leader.generation(),
        final_print: fingerprint(&leader.reader().epoch()),
        ops: frames.iter().map(|f| f.ops).sum(),
        frames,
    })
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    setup_us: Vec<f64>,
    reads: ReadSamples,
    publish_update_us: Vec<f64>,
    publish_create_us: Vec<f64>,
    write_rates: Vec<f64>,
    apply_rates: Vec<f64>,
    frame_update_us: Vec<f64>,
    install_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    rounds: usize,
}

/// Builds a world and boots a serving node on it, timed.
fn set_up(world: World, tr: &mut Tracer) -> (HiveServer, f64) {
    clock(|| {
        let world = tr.leaf("sim.world_build", || {
            WorldBuilder::new((world.config)()).build()
        });
        tr.leaf("serve.boot", || HiveServer::new(world.db))
    })
}

fn print_world(workload: &str, world: World, db: &HiveDb) {
    println!(
        "world {workload} (SimConfig::{}): users {} papers {} sessions {} conferences {} events {}",
        world.name,
        db.user_ids().len(),
        db.paper_ids().len(),
        db.session_ids().len(),
        db.conference_ids().len(),
        db.activity_log().len()
    );
}

fn run(args: &Args, shape: &Shape, tr: &mut Tracer) -> Result<Run, String> {
    let mut out = Run::default();

    // ---- set-up -----------------------------------------------------------
    let (leader_node, us) = set_up(LANE_WORLD, tr);
    out.setup_us.push(us);
    print_world(&args.workload, LANE_WORLD, leader_node.hive().db());
    let reader = if shape.serving == Serving::Static {
        let (reader, us) = set_up(STATIC_WORLD, tr);
        out.setup_us.push(us);
        print_world(&args.workload, STATIC_WORLD, reader.hive().db());
        let epoch = reader.current();
        let (_, us) = clock(|| {
            for u in epoch.db().user_ids() {
                epoch.search(u, "warm", hive_core::discover::DiscoverConfig::defaults());
                epoch.recommend_peers(u, hive_core::peers::PeerRecConfig::defaults());
            }
        });
        println!("memo warm pass over all users: {:.0} ms", us / 1e3);
        Some(reader)
    } else {
        None
    };
    let log = seal_log(leader_node, shape, args.seed)?;
    println!(
        "leader log: checkpoint {} bytes, {} ops frames of {} writes ({} with a create)",
        log.checkpoint.len(),
        log.frames.len(),
        shape.frame_writes,
        log.frames
            .iter()
            .filter(|f| f.class == WriteClass::Create)
            .count()
    );

    // ---- timed phase ------------------------------------------------------
    hive_obs::reset();
    hive_obs::set_level(if tr.enabled() {
        Level::Counts
    } else {
        Level::Off
    });
    let mut reads = ReadMix::new(args.seed ^ READ_STREAM);
    let mut replayer = Follower::blank(0);
    let mut applied_ops = 0usize;
    let start = std::time::Instant::now(); // lint:allow(deterministic-time)
    while out.rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        // Every round sets up a fresh writer and sends it the same writes,
        // so the world the writes and reads see does not grow with the
        // number of rounds a run fits in. Its set-up time is a sample of
        // `setup_s`; the platform's counters are off while it runs.
        let (mut writer, us) = untraced(|| set_up(LANE_WORLD, tr));
        out.setup_us.push(us);
        let mut gen = WriteGen::new(args.seed ^ WRITE_STREAM);
        let (mut written, mut write_us) = (0usize, 0.0);
        let mut frame_us = 0.0;
        for step in 0..STEPS {
            // Replica unit.
            out.attempted += 1;
            if step == 0 {
                let mut f = Follower::blank(out.rounds);
                if tr.enabled() {
                    let cp = tr.leaf("frame.checkpoint_decode", || frame::decode(&log.checkpoint));
                    if let Ok(frame::Frame {
                        payload: FramePayload::Checkpoint(cp),
                        ..
                    }) = cp
                    {
                        let _: Option<HiveDb> =
                            tr.leaf("persist.restore", || HiveDb::from_checkpoint(&cp).ok());
                    }
                }
                let (res, us) = tr.leaf("follower.install", || clock(|| f.ingest(&log.checkpoint)));
                if res == Ok(Ingest::Checkpoint) {
                    out.install_us.push(us);
                    let print = untraced(|| f.reader().map(|r| fingerprint(&r.epoch())));
                    if print.as_deref() != Some(log.checkpoint_print.as_str()) {
                        out.violations.push(
                            "installed follower differs from the leader's checkpoint epoch".into(),
                        );
                    }
                } else {
                    out.failed += 1;
                    out.violations.push(format!("checkpoint install: {res:?}"));
                }
                replayer = f;
                applied_ops = 0;
            } else {
                let lf = &log.frames[step - 1];
                if tr.enabled() {
                    let _ = tr.leaf("frame.decode", || frame::decode(&lf.wire));
                }
                let span = lf
                    .class
                    .pick("follower.ingest_update", "follower.ingest_create");
                let (res, us) = tr.leaf(span, || clock(|| replayer.ingest(&lf.wire)));
                if res == Ok(Ingest::Applied { ops: lf.ops }) {
                    frame_us += us;
                    applied_ops += lf.ops;
                    if lf.class == WriteClass::Update {
                        out.frame_update_us.push(us);
                    }
                } else {
                    out.failed += 1;
                    out.violations.push(format!("frame {step}: {res:?}"));
                }
            }

            // Write unit: one mutation, then publish.
            out.attempted += 1;
            let (op, class) = gen.next(writer.hive().db());
            let prev = writer.current();
            let before = witness(prev.db(), &op);
            let root = tr.enter("write");
            let (res, mutate_us) = tr.leaf("db.mutate", || {
                clock(|| hive_replica::ops::apply(&op, writer.writer()))
            });
            if let Err(e) = res {
                tr.exit(root);
                out.failed += 1;
                out.violations
                    .push(format!("writer refused {}: {e}", op.label()));
            } else {
                if tr.enabled() {
                    // An extra copy, outside the timed publish.
                    tr.leaf("db.clone", || writer.hive().db().clone());
                }
                // Traced, the derived tiers are brought up to date one
                // call at a time before `publish`, which then finds them
                // warm: the sum is the work publish does on its own.
                let (next, publish_us) = clock(|| {
                    if tr.enabled() {
                        let kn = class.pick("knowledge.update", "knowledge.create");
                        tr.leaf(kn, || writer.hive().knowledge());
                        tr.leaf("index.patch", || writer.hive().indexes());
                        tr.leaf("ppr.tier", || writer.hive().ppr());
                    }
                    tr.leaf("publish.rest", || writer.publish())
                });
                tr.exit(root);
                written += 1;
                write_us += mutate_us + publish_us;
                class
                    .pick(&mut out.publish_update_us, &mut out.publish_create_us)
                    .push(publish_us);
                let after = witness(next.db(), &op);
                if after != before + 1 {
                    out.violations.push(format!(
                        "{} not visible exactly once in the next epoch ({before} -> {after})",
                        op.label()
                    ));
                }
            }

            // Reads on the serving node.
            let epoch: Option<Arc<Epoch>> = match shape.serving {
                Serving::Static => reader.as_ref().map(HiveServer::current),
                Serving::Writer => Some(writer.current()),
                Serving::Follower => replayer.reader().map(|r| r.epoch()),
            };
            let Some(epoch) = epoch else {
                return Err("no follower is serving".into());
            };
            for _ in 0..shape.reads_per_step {
                out.attempted += 1;
                reads.read(&epoch, &mut out.reads, tr);
            }
        }

        // Round checks, outside every timed call.
        untraced(|| {
            let served = writer.current();
            let cold = Epoch::rebuild(Arc::new(served.db().clone()));
            if fingerprint(&served) != fingerprint(&cold) {
                out.violations.push(format!(
                    "round {}: patched epoch differs from a cold rebuild",
                    out.rounds
                ));
            }
            let caught_up = replayer.is_streaming()
                && replayer.generation() == log.final_gen
                && applied_ops == log.ops
                && replayer
                    .reader()
                    .map(|r| fingerprint(&r.epoch()))
                    .as_deref()
                    == Some(log.final_print.as_str());
            if !caught_up {
                out.violations.push(format!(
                    "round {}: follower did not end streaming at the leader's state",
                    out.rounds
                ));
            }
        });
        out.write_rates.push(written as f64 * 1e6 / write_us);
        out.apply_rates.push(applied_ops as f64 * 1e6 / frame_us);
        out.rounds += 1;
    }
    out.violations.append(&mut reads.violations);
    Ok(out)
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Collects named metric values; a value that could not be measured is
/// reported as missing instead of as a number.
#[derive(Default)]
struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
    missing: Vec<&'static str>,
}

impl Metrics {
    fn put(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        match value {
            Some(v) if v.is_finite() => self.values.push((name, unit, v)),
            _ => self.missing.push(name),
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn end_to_end(r: &Run) -> Metrics {
    let kind = |k: ReadKind| r.reads.by_kind.get(&k).map(Vec::as_slice).unwrap_or(&[]);
    let mut m = Metrics::default();
    m.put("setup_s", "s", median(&r.setup_us).map(|us| us / 1e6));
    m.put("peak_rss_mb", "MB", peak_rss_mb());
    m.put(
        "reads_per_s",
        "1/s",
        median(&window_rates(&r.reads.all_us, READ_WINDOW)),
    );
    m.put("search_p50_us", "us", median(kind(ReadKind::Search)));
    m.put(
        "search_p99_us",
        "us",
        windowed_percentile(kind(ReadKind::Search), TAIL_WINDOW, 0.99),
    );
    m.put("peers_p50_us", "us", median(kind(ReadKind::Peers)));
    m.put("explain_p50_us", "us", median(kind(ReadKind::Explain)));
    m.put("feed_p50_us", "us", median(kind(ReadKind::Highlights)));
    m.put("history_p50_us", "us", median(kind(ReadKind::History)));
    m.put("write_ops_per_s", "1/s", median(&r.write_rates));
    m.put("publish_update_p50_us", "us", median(&r.publish_update_us));
    m.put("publish_create_p50_us", "us", median(&r.publish_create_us));
    m.put("apply_ops_per_s", "1/s", median(&r.apply_rates));
    m.put("frame_apply_p50_us", "us", median(&r.frame_update_us));
    m.put(
        "bootstrap_ms",
        "ms",
        median(&r.install_us).map(|us| us / 1e3),
    );
    m
}

fn per_layer(tr: &Tracer) -> Metrics {
    let spans = tr.self_times();
    let med = |name: &str| spans.get(name).and_then(|v| median(v));
    let diff = |a: &str, b: &str| Some(med(a)? - med(b)?);
    let snap = hive_obs::snapshot();
    let count = |name: &str| Some(snap.counter(name) as f64);
    let (hit, solve) = (
        snap.counter("core.ppr.memo_hit"),
        snap.counter("core.ppr.solve"),
    );
    let mut m = Metrics::default();
    m.put(
        "sim.world_build_ms",
        "ms",
        med("sim.world_build").map(|us| us / 1e3),
    );
    m.put("serve.boot_ms", "ms", med("serve.boot").map(|us| us / 1e3));
    m.put("context.build_us", "us", med("context.build"));
    m.put(
        "discover.search_self_us",
        "us",
        diff("discover.search", "context.build"),
    );
    m.put(
        "ppr.solve_us",
        "us",
        diff("ppr.fresh_search", "ppr.warm_search"),
    );
    m.put(
        "ppr.memo_hit_ratio",
        "ratio",
        (hit + solve > 0).then(|| hit as f64 / (hit + solve) as f64),
    );
    m.put("peers.recommend_us", "us", med("peers.recommend"));
    m.put("evidence.explain_us", "us", med("evidence.explain"));
    m.put("feed.highlights_us", "us", med("feed.highlights"));
    m.put("history.search_us", "us", med("history.search"));
    m.put("index.scan_fallbacks", "count", count("idx.scan_fallback"));
    m.put("db.mutate_us", "us", med("db.mutate"));
    m.put("knowledge.update_us", "us", med("knowledge.update"));
    m.put("knowledge.create_us", "us", med("knowledge.create"));
    m.put("index.patch_us", "us", med("index.patch"));
    m.put("ppr.tier_us", "us", med("ppr.tier"));
    m.put("db.clone_us", "us", med("db.clone"));
    m.put("publish.rest_us", "us", med("publish.rest"));
    m.put("kn.delta", "count", count("core.kn.delta"));
    m.put("kn.miss", "count", count("core.kn.miss"));
    m.put("serve.epoch.patch", "count", count("serve.epoch.patch"));
    m.put("serve.epoch.rebuild", "count", count("serve.epoch.rebuild"));
    m.put("frame.decode_us", "us", med("frame.decode"));
    m.put(
        "frame.checkpoint_decode_ms",
        "ms",
        med("frame.checkpoint_decode").map(|us| us / 1e3),
    );
    m.put(
        "persist.restore_ms",
        "ms",
        med("persist.restore").map(|us| us / 1e3),
    );
    m.put(
        "follower.ingest_update_us",
        "us",
        med("follower.ingest_update"),
    );
    m.put(
        "follower.ingest_create_us",
        "us",
        med("follower.ingest_create"),
    );
    m.put(
        "replica.follower.apply.frames",
        "count",
        count("replica.follower.apply.frames"),
    );
    m.put(
        "replica.follower.apply.ops",
        "count",
        count("replica.follower.apply.ops"),
    );
    m
}

fn write_trace(tr: &Tracer, args: &Args) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tr.write_tsv(&mut file)?;
    std::io::Write::flush(&mut file)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(shape) = shape(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (serve_read, serve_mixed, replica_catchup)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {} seed {} seconds {} trace {} | host threads {threads}, HIVE_THREADS {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("HIVE_THREADS").unwrap_or_else(|_| "unset (host default)".into())
    );
    let mut tr = Tracer::new(args.trace);
    let r = match run(&args, &shape, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let e2e = end_to_end(&r);
    let mut metrics = e2e.json();
    let mut missing = e2e.missing.clone();
    println!(
        "operations: attempted {} failed {} in {} rounds ({} reads, {} writes, {} installs, {} frames)",
        r.attempted,
        r.failed,
        r.rounds,
        r.reads.all_us.len(),
        r.publish_update_us.len() + r.publish_create_us.len(),
        r.install_us.len(),
        r.rounds * (STEPS - 1)
    );
    if args.trace {
        println!("end-to-end while traced: {metrics}");
        match write_trace(&tr, &args) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
        let layers = per_layer(&tr);
        metrics = layers.json();
        missing = layers.missing;
    }
    for v in r.violations.iter().take(20) {
        println!("CHECK FAILED: {v}");
    }
    for name in &missing {
        println!("MISSING METRIC: {name}");
    }
    let correct = r.violations.is_empty() && missing.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        r.attempted, r.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_classes_follow_the_ops_they_carry() {
        let shape = Shape {
            serving: Serving::Follower,
            reads_per_step: 1,
            frame_writes: 6,
        };
        let server = HiveServer::new(WorldBuilder::new(SimConfig::small()).build().db);
        let log = seal_log(server, &shape, 5).expect("the leader accepts the log");
        assert_eq!(log.frames.len(), STEPS - 1);
        assert_eq!(log.ops, (STEPS - 1) * shape.frame_writes);
        let mut classes = Vec::new();
        for lf in &log.frames {
            let Ok(frame::Frame {
                payload: FramePayload::Ops(batch),
                ..
            }) = frame::decode(&lf.wire)
            else {
                panic!("an ops frame did not decode");
            };
            assert_eq!(batch.ops.len(), lf.ops);
            let creates = batch.ops.iter().any(|op| {
                matches!(
                    op,
                    hive_replica::ReplOp::AddUser(_) | hive_replica::ReplOp::AddPaper(_)
                )
            });
            assert_eq!(creates, lf.class == WriteClass::Create);
            classes.push(lf.class);
        }
        assert!(classes.contains(&WriteClass::Update) && classes.contains(&WriteClass::Create));
    }
}
