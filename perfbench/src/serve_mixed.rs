//! `serve_mixed`: one closed-loop client against a 1-worker `Server`,
//! sending bursts of 32 queries from the `examples/serve.rs` mix
//! (Add4/GMC ×8 inputs, Bc8/BSA ×6, Gamma12/GMC ×32 over 8 §5.6
//! segments, in 2:3:1 proportion), flushing, and waiting every ticket.
//! Latency runs from the start of the burst.

use crate::replay::{self, Replayer, Sim, Steps};
use crate::trace::{self, CacheDelta, ServeCounters, ServeSpans};
use crate::{Args, Deadline, Outcome, Timed};
use pluto_baselines::WorkloadId;
use pluto_core::serve::{serial_oracle, QueryReply, QuerySpec, ServeConfig, Server};
use pluto_core::session::ExecConfig;
use pluto_core::{DesignKind, PlutoError};
use pluto_workloads::serve_lut;
use sim_support::{Rng, SeedableRng, StdRng};
use std::sync::Arc;
use std::time::Instant;

const BURST: usize = 32;
/// Queries in one pass of the generated trace; timed phases cycle it.
const TRACE_LEN: usize = 60 * BURST;

/// Query classes: label, registry LUT, design, inputs per query.
const CLASSES: [(&str, WorkloadId, DesignKind, usize); 3] = [
    ("add4", WorkloadId::Add4, DesignKind::Gmc, 8),
    ("bc8", WorkloadId::Bc8, DesignKind::Bsa, 6),
    ("gamma12", WorkloadId::Gamma12, DesignKind::Gmc, 32),
];

struct Entry {
    class: usize,
    spec: QuerySpec,
}

/// The seeded trace: exactly 2/6 Add4, 3/6 Bc8, 1/6 Gamma12 per pass,
/// in shuffled order, with uniform inputs over each LUT's index range.
fn trace(seed: u64) -> Vec<Entry> {
    let luts: Vec<_> = CLASSES
        .iter()
        .map(|c| Arc::new(serve_lut(c.1).expect("registry LUT serves single queries")))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut classes: Vec<usize> = (0..TRACE_LEN)
        .map(|i| match i % 6 {
            0 => 2,
            1 | 2 => 0,
            _ => 1,
        })
        .collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.gen_range(0..=i));
    }
    classes
        .into_iter()
        .map(|class| {
            let (_, _, design, len) = CLASSES[class];
            let lut = &luts[class];
            let modulo = 1u64 << lut.input_bits();
            Entry {
                class,
                spec: QuerySpec {
                    config: ExecConfig::measurement(design),
                    lut: Arc::clone(lut),
                    inputs: (0..len).map(|_| rng.gen_range(0..modulo)).collect(),
                },
            }
        })
        .collect()
}

/// One burst: enqueue every entry, flush, wait every ticket in order.
fn burst(
    server: &mut Server,
    entries: &[Entry],
    timed: &mut Timed,
    mut spans: Option<&mut ServeSpans>,
) -> Vec<Result<QueryReply, PlutoError>> {
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(entries.len());
    for e in entries {
        let spec = e.spec.clone();
        tickets.push(match spans.as_deref_mut() {
            Some(s) => s.enqueue.time(|| server.enqueue(spec)),
            None => server.enqueue(spec),
        });
    }
    match spans.as_deref_mut() {
        Some(s) => s.flush.time(|| server.flush()),
        None => server.flush(),
    }
    let mut replies = Vec::with_capacity(entries.len());
    let mut latencies_ms = Vec::with_capacity(entries.len());
    for ticket in tickets {
        replies.push(match spans.as_deref_mut() {
            Some(s) => s.wait.time(|| ticket.wait()),
            None => ticket.wait(),
        });
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    timed.record(start.elapsed().as_secs_f64(), &latencies_ms);
    replies
}

/// Checks each reply against `Lut::apply_all` and, once the warm-up pass
/// is recorded, its report against that pass's report for the same
/// trace entry (simulated cost must repeat bit-for-bit).
fn check(
    out: &mut Outcome,
    first: usize,
    entries: &[Entry],
    replies: &[Result<QueryReply, PlutoError>],
    reference: Option<&[Option<QueryReply>]>,
) {
    for (i, (e, reply)) in entries.iter().zip(replies).enumerate() {
        let idx = first + i;
        out.attempted += 1;
        let ok = match reply {
            Ok(r) => {
                let expect = e.spec.lut.apply_all(&e.spec.inputs).ok();
                let same_cost = reference
                    .is_none_or(|refs| refs[idx].as_ref().is_some_and(|w| w.report == r.report));
                expect.as_ref() == Some(&r.values) && r.report.validated && same_cost
            }
            Err(_) => false,
        };
        out.check(ok, || {
            format!(
                "{} query {idx}: {:?}",
                CLASSES[e.class].0,
                reply.as_ref().err()
            )
        });
    }
}

/// The `b`-th burst of the cycled trace, with its first trace index.
fn nth_burst(trace: &[Entry], b: usize) -> (usize, &[Entry]) {
    let first = (b % (TRACE_LEN / BURST)) * BURST;
    (first, &trace[first..first + BURST])
}

/// Checks the first reply of each class against `serve::serial_oracle`,
/// values and `CostReport` both.
fn oracle_check(out: &mut Outcome, trace: &[Entry], reference: &[Option<QueryReply>]) {
    for (class, (name, ..)) in CLASSES.iter().enumerate() {
        let Some(idx) = trace.iter().position(|e| e.class == class) else {
            continue;
        };
        out.attempted += 1;
        let served = reference[idx].as_ref();
        let ok = match (serial_oracle(&trace[idx].spec), served) {
            (Ok((values, report)), Some(r)) => values == r.values && report == r.report,
            _ => false,
        };
        out.check(ok, || {
            format!("{name} query {idx} disagrees with serial_oracle")
        });
    }
}

pub fn run(args: &Args, start: Instant) -> Result<Outcome, String> {
    let trace = trace(args.seed);
    let mut server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut out = Outcome::default();

    // Warm-up: one pass over the trace records every plan and packs
    // every LUT row; its replies are the reference for later passes.
    let mut warm = Timed::default();
    let mut reference = Vec::with_capacity(TRACE_LEN);
    for (b, entries) in trace.chunks(BURST).enumerate() {
        let replies = burst(&mut server, entries, &mut warm, None);
        check(&mut out, b * BURST, entries, &replies, None);
        reference.extend(replies.into_iter().map(Result::ok));
    }
    if !args.trace {
        out.set("setup_s", start.elapsed().as_secs_f64());
    }
    if args.setup_only {
        return Ok(out);
    }

    let deadline = Deadline::after(args.seconds);
    if !args.trace {
        let mut timed = Timed::default();
        for b in 0.. {
            let (first, entries) = nth_burst(&trace, b);
            let replies = burst(&mut server, entries, &mut timed, None);
            check(&mut out, first, entries, &replies, Some(&reference));
            if deadline.passed() {
                break;
            }
        }
        timed.report(&mut out);
        oracle_check(&mut out, &trace, &reference);
        return Ok(out);
    }

    // Traced run: each burst is served untraced, served again with spans
    // around every serve call, then replayed query by query through the
    // session's steps — interleaved, so all three see the same host.
    let counters = ServeCounters::of(&server);
    let mut caches = CacheDelta::default();
    let (mut untraced, mut traced) = (Timed::default(), Timed::default());
    let mut spans = ServeSpans::default();
    let mut replayer = Replayer::default();
    let mut steps = Steps::default();
    let mut sim_mismatch = 0usize;
    for b in 0.. {
        let (first, entries) = nth_burst(&trace, b);
        // Alternate which of the pair runs first after the replay.
        for traced_now in [b % 2 == 1, b % 2 == 0] {
            let replies = if traced_now {
                caches.around(|| burst(&mut server, entries, &mut traced, Some(&mut spans)))
            } else {
                burst(&mut server, entries, &mut untraced, None)
            };
            check(&mut out, first, entries, &replies, Some(&reference));
        }
        for (i, e) in (first..).zip(entries) {
            out.attempted += 1;
            let replayed = replayer.query(&e.spec.config, &e.spec.lut, &e.spec.inputs);
            let ok = replayed.as_ref().is_ok_and(|r| r.validated);
            out.check(ok, || {
                format!("replayed query {i}: {:?}", replayed.as_ref().err())
            });
            if let (Ok(r), Some(served)) = (&replayed, &reference[i]) {
                steps.add(&r.steps);
                sim_mismatch += usize::from(r.sim != Sim::of(&served.report));
            }
        }
        if deadline.passed() {
            break;
        }
    }
    caches.report(&mut out, traced.ops);
    counters.report(&server, &mut out, untraced.ops + traced.ops);
    spans.report(&mut out);
    if sim_mismatch > 0 {
        out.note(format!(
            "note: {sim_mismatch} replayed queries cost differently from their served replies"
        ));
    }
    replay::report_steps(&mut out, &steps, untraced.ops);
    trace::report_attribution(
        &mut out,
        untraced.per_op_s(),
        traced.per_op_s(),
        steps.total() / untraced.ops as f64,
        1.0,
    );

    let mut sim = Sim::default();
    for r in reference.iter().flatten() {
        sim.add(&Sim::of(&r.report));
    }
    trace::report_sim(&mut out, &sim, TRACE_LEN as u64);
    oracle_check(&mut out, &trace, &reference);
    Ok(out)
}
