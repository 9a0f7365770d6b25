//! Service-scale runtime stress: every suite monitor is hammered by 8 OS
//! worker threads running thousands of monitor calls through its session
//! load mix, then the *same* session stream is replayed sequentially on one
//! thread against a fresh engine.
//!
//! Three properties per (benchmark, engine):
//!
//! 1. **Counter consistency** — the scripts are self-balanced and every
//!    shared *scalar* in these monitors is an order-independent total
//!    (counts, turns, tickets; order-dependent data lives in arrays), so the
//!    concurrent run's scalar state must equal the sequential replay's
//!    exactly. A lost update under contention shows up here.
//! 2. **Conservation** — the final state must be neutral: buffers empty,
//!    no readers inside, every fork back on the table. A lost wakeup shows
//!    up as a deadlock instead (CI runs the test under a wall-clock budget).
//! 3. **Blocking accounting** — the sequential replay never blocks (each
//!    script is enabled from the states the session boundaries produce), so
//!    its engine must report zero wakeups; every wakeup in the concurrent
//!    run is genuine contention.
//!
//! The explicit engine runs in both signalling modes, so the targeted-wakeup
//! fast path faces the same 8-thread storm as the paper's static semantics.
//!
//! Two pins guard the engines' evaluator (compiled once per engine; see
//! `monitor_lang::compile`) and the static mode's skipped signal to an empty
//! queue: the sequential replay's final state and counters are held to
//! recorded values (*same work*), and a capacity-1 buffer under eight
//! threads must drain (*no lost wakeup*).

use expresso_repro::core::Expresso;
use expresso_repro::loadgen::{build_engine, run_load, EngineKind, LoadConfig};
use expresso_repro::logic::Valuation;
use expresso_repro::runtime::{
    AutoSynchRuntime, ExplicitRuntime, MonitorRuntime, Operation, SignalMode,
};
use expresso_repro::suite::{all, Benchmark, SessionSpec};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

const WORKERS: usize = 8;
/// A multiple of [`WORKERS`], so identity-striped scripts stay balanced and
/// the round-robin turn returns to zero.
const SESSIONS: u64 = 1024;
const SEED: u64 = 0xC0FFEE;

type Ints = BTreeMap<String, i64>;
type Bools = BTreeMap<String, bool>;

/// The shared scalar state, arrays excluded: array *contents* (which item
/// sits in which buffer slot) legitimately depend on the interleaving.
fn scalar_state(runtime: &dyn MonitorRuntime) -> (Ints, Bools) {
    let snapshot = runtime.snapshot();
    (
        snapshot
            .ints()
            .map(|(name, value)| (name.to_string(), *value))
            .collect(),
        snapshot
            .bools()
            .map(|(name, value)| (name.to_string(), *value))
            .collect(),
    )
}

/// Replays the exact session stream of the load run in session-major order
/// on the calling thread, returning the number of operations performed.
fn replay_sequentially(runtime: &dyn MonitorRuntime, benchmark: &Benchmark) -> u64 {
    let mut operations = 0u64;
    for session in 0..SESSIONS {
        let spec = SessionSpec {
            worker: (session % WORKERS as u64) as usize,
            workers: WORKERS,
            session,
            sessions: SESSIONS,
            rounds: 1,
            seed: SEED,
        };
        for op in (benchmark.session_script)(&spec) {
            runtime
                .call(&op.method, &op.locals)
                .unwrap_or_else(|e| panic!("{}: sequential replay: {e}", benchmark.name));
            operations += 1;
        }
    }
    operations
}

/// Per-benchmark conservation: the balanced session mixes must leave the
/// monitor in its neutral state.
fn assert_neutral(benchmark: &Benchmark, runtime: &dyn MonitorRuntime, ints: &Ints, bools: &Bools) {
    let name = benchmark.name;
    let zero = |key: &str| {
        assert_eq!(
            ints.get(key),
            Some(&0),
            "{name}: `{key}` not conserved: {ints:?}"
        )
    };
    let clear = |key: &str| assert_eq!(bools.get(key), Some(&false), "{name}: `{key}` still set");
    match name {
        "BoundedBuffer" | "ParameterizedBoundedBuffer" => zero("count"),
        "H2OBarrier" => zero("hydrogen"),
        "SleepingBarber" => zero("waiting"),
        // 1024 sessions of one pass each over 8 participants: 128 full laps.
        "RoundRobin" => {
            zero("turn");
            assert_eq!(ints["rounds"], (SESSIONS / WORKERS as u64) as i64, "{name}");
        }
        "TicketedReadersWriters" => {
            zero("readers");
            clear("writerIn");
            assert_eq!(
                ints["nextWriterTicket"], ints["servingWriter"],
                "{name}: a drawn ticket was never served"
            );
        }
        "DiningPhilosophers" => {
            let forks = runtime
                .snapshot()
                .array("forks")
                .expect("forks array")
                .clone();
            assert!(
                forks.iter().all(|&f| f == 0),
                "{name}: forks still held: {forks:?}"
            );
        }
        "ReadersWriters" => {
            zero("readers");
            clear("writerIn");
        }
        "ConcurrencyThrottle" => zero("threadCount"),
        "PendingPostQueue" => zero("size"),
        "AsyncDispatch" => {
            zero("queueSize");
            clear("stopped");
        }
        "SimpleBlockingDeployment" => clear("busy"),
        "SimpleDecoder" => {
            zero("queuedInputs");
            zero("queuedOutputs");
        }
        "AsyncOperationExecutor" => zero("pending"),
        "BroadcastRing" => zero("inFlight"),
        "WriterPriorityLock" => {
            zero("activeReaders");
            zero("waitingWriters");
            clear("writerActive");
        }
        other => panic!("no conservation invariant for benchmark {other}"),
    }
}

#[test]
fn suite_under_eight_worker_load_matches_its_sequential_replay() {
    let config = LoadConfig::closed_loop(WORKERS, SESSIONS, 1, SEED);
    for benchmark in all() {
        let explicit = Expresso::new()
            .analyze(&benchmark.monitor())
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name))
            .explicit;
        for kind in EngineKind::all() {
            let label = kind.label();
            let concurrent = build_engine(kind, &benchmark, &explicit, WORKERS)
                .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name));
            let report = run_load(concurrent.as_ref(), kind, benchmark.session_script, &config);
            assert_eq!(report.call_errors, 0, "{} under {label}", benchmark.name);
            assert!(
                report.operations >= SESSIONS,
                "{} under {label}: only {} operations",
                benchmark.name,
                report.operations
            );

            let sequential = build_engine(kind, &benchmark, &explicit, WORKERS)
                .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name));
            let sequential_ops = replay_sequentially(sequential.as_ref(), &benchmark);
            assert_eq!(
                report.operations, sequential_ops,
                "{} under {label}: concurrent and sequential streams diverge",
                benchmark.name
            );
            assert_eq!(
                sequential.wakeups(),
                0,
                "{} under {label}: the sequential replay blocked",
                benchmark.name
            );

            let (concurrent_ints, concurrent_bools) = scalar_state(concurrent.as_ref());
            let (sequential_ints, sequential_bools) = scalar_state(sequential.as_ref());
            assert_eq!(
                concurrent_ints, sequential_ints,
                "{} under {label}: scalar state diverged from the sequential replay",
                benchmark.name
            );
            assert_eq!(
                concurrent_bools, sequential_bools,
                "{} under {label}: boolean state diverged from the sequential replay",
                benchmark.name
            );
            assert_neutral(
                &benchmark,
                concurrent.as_ref(),
                &concurrent_ints,
                &concurrent_bools,
            );
        }
    }
}

/// The targeted mode's extra bookkeeping must never cost correctness under
/// real contention: pin many more sessions than workers on the benchmark
/// with the heaviest blocking (every pass waits for its turn) and check the
/// fast-path counters stay coherent with the static mode's behaviour.
#[test]
fn round_robin_contention_exercises_the_targeted_fast_path() {
    let benchmark = all()
        .into_iter()
        .find(|b| b.name == "RoundRobin")
        .expect("RoundRobin in suite");
    let explicit = Expresso::new()
        .analyze(&benchmark.monitor())
        .expect("analysis succeeds")
        .explicit;
    let config = LoadConfig::closed_loop(WORKERS, 2048, 1, SEED);
    let runtime = build_engine(EngineKind::ExplicitTargeted, &benchmark, &explicit, WORKERS)
        .expect("engine builds");
    let report = run_load(
        runtime.as_ref(),
        EngineKind::ExplicitTargeted,
        benchmark.session_script,
        &config,
    );
    assert_eq!(report.call_errors, 0);
    assert_eq!(report.operations, 2048);
    // With 8 workers fighting for one turn the run must both block (real
    // wakeups) and save wakeups vs broadcast-everyone (avoided > 0).
    assert!(report.wakeups > 0, "no contention observed");
    assert!(
        report.avoided_wakeups > 0,
        "targeted signalling never avoided a wakeup under contention"
    );
    assert_eq!(runtime.snapshot().int("turn"), Some(0));
}

/// What the sequential replay leaves behind, recorded from the engines as
/// they were when every guard and body was still tree-walked over a
/// `Valuation` (PR 14): the full final state (identical on the three
/// engines), the predicate evaluations of the static engine and the
/// notifications the targeted engine elided. Nothing blocks in a replay, so
/// every other counter is zero — in particular the static engine elides
/// nothing: a signal it skips because the queue is empty is the signal Java
/// would have sent to nobody, not the targeted fast path.
const REPLAY_PINS: [(&str, &str, usize, usize); 16] = [
    ("BoundedBuffer", "buffer=[670512, 385192, 871463, 64891, 471601, 326704, 540917, 35937] capacity=8 count=0 head=0 tail=0", 2048, 2048),
    ("H2OBarrier", "hydrogen=0 molecules=1024", 2048, 2048),
    ("SleepingBarber", "chairs=6 served=1024 waiting=0", 2048, 2048),
    ("RoundRobin", "participants=8 rounds=128 turn=0", 1024, 1024),
    ("TicketedReadersWriters", "nextWriterTicket=256 readers=0 servingWriter=256 writerIn=false", 1024, 1280),
    ("ParameterizedBoundedBuffer", "capacity=8 count=0", 4096, 4096),
    ("DiningPhilosophers", "forks=[0, 0, 0, 0, 0, 0, 0, 0] meals=1024 seats=8", 2048, 2048),
    ("ReadersWriters", "readers=0 writerIn=false", 1024, 1280),
    ("ConcurrencyThrottle", "threadCount=0 threadLimit=4", 1024, 1024),
    ("PendingPostQueue", "size=0", 1024, 1024),
    ("AsyncDispatch", "maxQueueSize=8 queueSize=0 stopped=false", 2048, 2048),
    ("SimpleBlockingDeployment", "busy=false deployments=1024", 0, 1024),
    ("SimpleDecoder", "freeInputs=4 freeOutputs=4 inputBuffers=4 outputBuffers=4 queuedInputs=0 queuedOutputs=0", 4096, 4096),
    ("AsyncOperationExecutor", "completed=1024 maxPending=8 pending=0", 2048, 2048),
    ("BroadcastRing", "acks=0 capacity=4 delivered=1024 inFlight=0 readers=2", 3072, 3072),
    ("WriterPriorityLock", "activeReaders=0 waitingWriters=0 writerActive=false", 1536, 1536),
];

/// Every binding of a snapshot as sorted `name=value` text.
fn render_state(snapshot: &Valuation) -> String {
    let ints = snapshot.ints().map(|(k, v)| format!("{k}={v}"));
    let bools = snapshot.bools().map(|(k, v)| format!("{k}={v}"));
    let arrays = snapshot.arrays().map(|(k, v)| format!("{k}={v:?}"));
    let mut parts: Vec<String> = ints.chain(bools).chain(arrays).collect();
    parts.sort();
    parts.join(" ")
}

#[test]
fn sequential_replay_does_the_recorded_work_on_every_engine() {
    let suite = all();
    assert_eq!(suite.len(), REPLAY_PINS.len());
    for (benchmark, (name, state, static_evaluations, targeted_elided)) in
        suite.iter().zip(REPLAY_PINS)
    {
        assert_eq!(benchmark.name, name);
        let explicit = Expresso::new()
            .analyze(&benchmark.monitor())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .explicit;
        for kind in EngineKind::all() {
            let runtime = build_engine(kind, benchmark, &explicit, WORKERS)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            replay_sequentially(runtime.as_ref(), benchmark);
            let (evaluations, elided) = match kind {
                EngineKind::Implicit => (0, 0),
                EngineKind::ExplicitStatic => (static_evaluations, 0),
                EngineKind::ExplicitTargeted => (0, targeted_elided),
            };
            let counters = (
                runtime.wakeups(),
                runtime.predicate_evaluations(),
                runtime.avoided_wakeups(),
                runtime.elided_notifications(),
            );
            let label = kind.label();
            assert_eq!(
                counters,
                (0, evaluations, 0, elided),
                "{name} under {label}: (wakeups, predicate evaluations, avoided, elided)"
            );
            assert_eq!(
                render_state(&runtime.snapshot()),
                state,
                "{name} under {label}"
            );
        }
    }
}

/// A one-slot buffer with four producers and four consumers: nearly every
/// call blocks, and every `put` must wake a `take` and back. An engine that
/// skips a notification some waiter needed stops here for good, so the run
/// sits under a watchdog that ends the process instead of hanging the suite.
#[test]
fn one_slot_buffer_under_eight_threads_never_loses_a_wakeup() {
    const OPS_PER_THREAD: usize = 20_000;
    let benchmark = all()
        .into_iter()
        .find(|b| b.name == "BoundedBuffer")
        .expect("BoundedBuffer in suite");
    let explicit = Expresso::new()
        .analyze(&benchmark.monitor())
        .expect("analysis succeeds")
        .explicit;
    let mut one_slot = Valuation::new();
    one_slot.set_int("capacity", 1);
    let engines: Vec<(&str, Box<dyn MonitorRuntime>)> = vec![
        (
            "implicit",
            Box::new(AutoSynchRuntime::new(benchmark.monitor(), &one_slot).unwrap()),
        ),
        (
            "explicit_static",
            Box::new(
                ExplicitRuntime::with_mode(explicit.clone(), &one_slot, SignalMode::Static)
                    .unwrap(),
            ),
        ),
        (
            "explicit_targeted",
            Box::new(
                ExplicitRuntime::with_mode(explicit, &one_slot, SignalMode::Targeted).unwrap(),
            ),
        ),
    ];
    let mut item = Valuation::new();
    item.set_int("item", 7);
    let put = Operation::with_locals("put", item);
    let take = Operation::new("take");
    for (label, runtime) in &engines {
        let (done, finished) = mpsc::channel::<()>();
        let label = label.to_string();
        let watchdog = std::thread::spawn(move || {
            if finished.recv_timeout(Duration::from_secs(300)).is_err() {
                eprintln!("{label}: the one-slot buffer deadlocked (a wakeup was lost)");
                std::process::exit(1);
            }
        });
        std::thread::scope(|scope| {
            for thread in 0..WORKERS {
                let op = if thread % 2 == 0 { &put } else { &take };
                scope.spawn(move || {
                    for _ in 0..OPS_PER_THREAD {
                        runtime.call(&op.method, &op.locals).unwrap();
                    }
                });
            }
        });
        done.send(()).expect("the watchdog is waiting");
        watchdog.join().expect("the watchdog does not panic");
        assert_eq!(runtime.snapshot().int("count"), Some(0));
        assert!(runtime.wakeups() > 0, "nothing ever blocked");
    }
}
