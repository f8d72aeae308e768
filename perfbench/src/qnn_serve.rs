//! `qnn_serve`: one closed-loop client streaming single-sample MLP
//! inferences (`QuantModel::mnist_mlp(7).serve_infer`) through a
//! 1-worker `Server`. Each sample issues five queries; fc1 alone looks up
//! 6272 products in the 65 536-entry `smul8` table (128 §5.6 segments).

use crate::replay::{self, Replayer, Sim, Steps};
use crate::trace::{self, CacheDelta, ServeCounters, ServeSpans, Span};
use crate::{Args, Deadline, Outcome, Timed};
use pluto_core::lut::Lut;
use pluto_core::serve::{QuerySpec, ServeConfig, Server};
use pluto_core::session::ExecConfig;
use pluto_core::{DesignKind, PlutoError};
use pluto_qnn::gemv::{smul_lut, to_field, to_signed};
use pluto_qnn::model::{sample_batch, Layer, QuantModel};
use pluto_qnn::pluto_exec::mlp_exec_config;
use std::sync::Arc;
use std::time::Instant;

/// Distinct samples the timed phases cycle through.
const SAMPLES: usize = 32;
/// Inferences run during set-up, before any timed op.
const WARMUP: usize = 2;
/// Leading samples of the traced run whose simulated cost is reported
/// (a fixed prefix, so the simulated metrics repeat exactly).
const REPLAYED: usize = 4;

/// `serve_infer`'s operand packing: weight and activation fields merged
/// into one `smul{w}` index per MAC.
fn pack(layer: &Layer, act: &[i32]) -> Vec<u64> {
    let w = layer.linear.width();
    let xf: Vec<u64> = act.iter().map(|&v| to_field(v, w)).collect();
    let mut merged = Vec::with_capacity(layer.linear.mac_count() as usize);
    for o in 0..layer.linear.out_features() {
        for (wgt, &xv) in layer.linear.row(o).iter().zip(&xf) {
            merged.push((to_field(*wgt, w) << w) | xv);
        }
    }
    merged
}

/// `serve_infer`'s host accumulation of signed products per neuron.
fn accumulate(layer: &Layer, products: &[u64]) -> Vec<i32> {
    let w = layer.linear.width();
    products
        .chunks(layer.linear.in_features())
        .map(|c| {
            c.iter()
                .map(|&p| i64::from(to_signed(p, 2 * w)))
                .sum::<i64>() as i32
        })
        .collect()
}

/// Host-side steps of `serve_infer`.
#[derive(Debug, Default)]
struct HostSteps {
    lut_build: Span,
    pack: Span,
    accumulate: Span,
}

/// Which query of a layer is being issued.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Product(usize),
    Requant,
}

/// The steps of `serve_infer`, host steps timed into `host` and each
/// query issued through `query`.
fn infer_with(
    model: &QuantModel,
    x: &[i32],
    host: &mut HostSteps,
    mut query: impl FnMut(Stage, Lut, Vec<u64>) -> Result<Vec<u64>, PlutoError>,
) -> Result<Vec<i32>, PlutoError> {
    let mut act = x.to_vec();
    for (li, layer) in model.layers.iter().enumerate() {
        let lut = host.lut_build.time(|| smul_lut(layer.linear.width()))?;
        let merged = host.pack.time(|| pack(layer, &act));
        let products = query(Stage::Product(li), lut, merged)?;
        let accs = host.accumulate.time(|| accumulate(layer, &products));
        act = match &layer.requant {
            Some(r) => {
                let lut = host.lut_build.time(|| r.lut())?;
                let indices = host
                    .pack
                    .time(|| accs.iter().map(|&a| r.index_of(a)).collect());
                let values = query(Stage::Requant, lut, indices)?;
                host.accumulate.time(|| {
                    values
                        .into_iter()
                        .map(|v| to_signed(v, r.out_width))
                        .collect()
                })
            }
            None => accs,
        };
    }
    Ok(act)
}

/// Host seconds of the replayed queries, per layer and stage.
#[derive(Debug, Default)]
struct QuerySteps {
    product: Vec<f64>,
    requant: f64,
    session: Steps,
    queries: u64,
}

/// One inference replayed step by step, each query through the session
/// steps on `replayer`; returns the logits, the summed simulated cost,
/// and whether every replayed query validated.
fn infer_replayed(
    model: &QuantModel,
    config: &ExecConfig,
    replayer: &mut Replayer,
    x: &[i32],
    host: &mut HostSteps,
    steps: &mut QuerySteps,
) -> Result<(Vec<i32>, Sim, bool), PlutoError> {
    let mut sim = Sim::default();
    let mut validated = true;
    let logits = infer_with(model, x, host, |stage, lut, inputs| {
        let r = replayer.query(config, &lut, &inputs)?;
        match stage {
            Stage::Product(li) => steps.product[li] += r.steps.total(),
            Stage::Requant => steps.requant += r.steps.total(),
        }
        steps.session.add(&r.steps);
        steps.queries += 1;
        sim.add(&r.sim);
        validated &= r.validated;
        Ok(r.values)
    })?;
    Ok((logits, sim, validated))
}

/// One traced inference through the server: `serve_infer`'s steps with
/// spans around each serve call; adds the replies' simulated cost.
fn infer_traced(
    model: &QuantModel,
    config: &ExecConfig,
    server: &mut Server,
    x: &[i32],
    spans: &mut ServeSpans,
    sim: &mut Sim,
) -> Result<Vec<i32>, PlutoError> {
    infer_with(model, x, &mut HostSteps::default(), |_, lut, inputs| {
        let spec = QuerySpec {
            config: config.clone(),
            lut: Arc::new(lut),
            inputs,
        };
        let ticket = spans.enqueue.time(|| server.enqueue(spec));
        spans.flush.time(|| server.flush());
        let reply = spans.wait.time(|| ticket.wait())?;
        sim.add(&Sim::of(&reply.report));
        Ok(reply.values)
    })
}

fn check(out: &mut Outcome, k: usize, got: Result<&[i32], &PlutoError>, want: &[i32]) {
    out.attempted += 1;
    let ok = got.is_ok_and(|logits| logits == want);
    out.check(ok, || {
        format!("sample {k}: logits differ from forward_reference ({got:?})")
    });
}

/// Times one inference of sample `k` into `timed` and checks its logits.
fn timed_op(
    timed: &mut Timed,
    out: &mut Outcome,
    k: usize,
    want: &[i32],
    infer: impl FnOnce() -> Result<Vec<i32>, PlutoError>,
) {
    let t = Instant::now();
    let got = infer();
    let secs = t.elapsed().as_secs_f64();
    timed.record(secs, &[secs * 1e3]);
    check(out, k, got.as_ref().map(Vec::as_slice), want);
}

pub fn run(args: &Args, start: Instant) -> Result<Outcome, String> {
    let model = QuantModel::mnist_mlp(7);
    let samples = sample_batch(args.seed, SAMPLES);
    let refs: Vec<Vec<i32>> = samples
        .iter()
        .map(|(_, x)| model.forward_reference(x))
        .collect();
    let config = mlp_exec_config(DesignKind::Gmc);
    let mut server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut out = Outcome::default();
    for (k, (_, x)) in samples.iter().enumerate().take(WARMUP) {
        let got = model.serve_infer(&mut server, &config, x);
        check(&mut out, k, got.as_ref().map(Vec::as_slice), &refs[k]);
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
        for k in (0..SAMPLES).cycle() {
            timed_op(&mut timed, &mut out, k, &refs[k], || {
                model.serve_infer(&mut server, &config, &samples[k].1)
            });
            if deadline.passed() {
                break;
            }
        }
        timed.report(&mut out);
        return Ok(out);
    }

    // Traced run: each sample is served by `serve_infer`, served again
    // through the same steps with spans around each serve call, then
    // replayed step by step — interleaved, so all three see the same host.
    let counters = ServeCounters::of(&server);
    let mut caches = CacheDelta::default();
    let (mut untraced, mut traced) = (Timed::default(), Timed::default());
    let mut spans = ServeSpans::default();
    let mut replayer = Replayer::default();
    let mut host = HostSteps::default();
    let mut steps = QuerySteps {
        product: vec![0.0; model.layers.len()],
        ..QuerySteps::default()
    };
    // Simulated cost over the first REPLAYED samples, served and replayed.
    let (mut served_sim, mut sim) = (Sim::default(), Sim::default());
    for (op, k) in (0..SAMPLES).cycle().enumerate() {
        let x = &samples[k].1;
        let mut served = Sim::default();
        // Alternate which of the pair runs first after the replay.
        for traced_now in [op % 2 == 1, op % 2 == 0] {
            if traced_now {
                caches.around(|| {
                    timed_op(&mut traced, &mut out, k, &refs[k], || {
                        infer_traced(&model, &config, &mut server, x, &mut spans, &mut served)
                    })
                });
            } else {
                timed_op(&mut untraced, &mut out, k, &refs[k], || {
                    model.serve_infer(&mut server, &config, x)
                });
            }
        }
        let replayed = infer_replayed(&model, &config, &mut replayer, x, &mut host, &mut steps);
        out.attempted += 1;
        let ok = replayed
            .as_ref()
            .is_ok_and(|(logits, _, validated)| *validated && *logits == refs[k]);
        out.check(ok, || {
            format!("replayed sample {k} disagrees with forward_reference")
        });
        if let (Ok((_, s, _)), true) = (&replayed, op < REPLAYED) {
            served_sim.add(&served);
            sim.add(s);
        }
        if op + 1 >= REPLAYED && deadline.passed() {
            break;
        }
    }
    caches.report(&mut out, traced.ops);
    counters.report(&server, &mut out, untraced.ops + traced.ops);
    spans.report(&mut out);
    if sim != served_sim {
        out.note("note: replayed samples cost differently from their served replies".into());
    }
    let n = untraced.ops as f64;
    out.set("qnn.lut_build_ms", host.lut_build.secs() * 1e3 / n);
    out.set("qnn.pack_ms", host.pack.secs() * 1e3 / n);
    for (layer, secs) in model.layers.iter().zip(&steps.product) {
        let name = layer.linear.name().trim_start_matches("mlp-");
        out.set(&format!("qnn.product_query_ms.{name}"), secs * 1e3 / n);
    }
    out.set("qnn.requant_query_ms", steps.requant * 1e3 / n);
    out.set("qnn.accumulate_ms", host.accumulate.secs() * 1e3 / n);
    let replayed =
        host.lut_build.secs() + host.pack.secs() + host.accumulate.secs() + steps.session.total();
    replay::report_steps(&mut out, &steps.session, steps.queries);
    trace::report_attribution(
        &mut out,
        untraced.per_op_s(),
        traced.per_op_s(),
        replayed / n,
        steps.queries as f64 / n,
    );
    trace::report_sim(&mut out, &sim, REPLAYED as u64);
    Ok(out)
}
