//! pLUTo execution of the QNN kernels (paper §9, `DESIGN.md` §12).
//!
//! Two generations of kernel live here. The original binarized inner
//! product — `dot(a, b) = 2·popcount(XNOR(a, b)) − n`, one XNOR(1)
//! query stream plus a BC-8 popcount fold — remains as
//! [`binary_dot_machine`] / [`BinaryDotWorkload`] /
//! [`binary_dot_cluster`], feeding the 1-bit Table 7 row. Layered on
//! top is the quantized-inference pipeline: [`QnnGemvWorkload`] runs a
//! [`QuantLinear`] GEMV tile (either [`GemvPath`] lowering, optional
//! [`Requant`] stage) as a first-class [`Workload`], sharded across the
//! cluster by output-neuron tile; [`gemv_cluster`] and [`mlp_cluster`]
//! drive one layer / a whole [`QuantModel`] through the pool with
//! row-order reassembly; [`QnnMlpWorkload`] packages end-to-end
//! forward passes for the registry and figure harness.
//!
//! [`qnn_query_count`] derives the Table 7 query totals from the layer
//! graph ([`lenet_layer_shapes`]) rather than hand-maintained MAC
//! constants.

use crate::gemv::{GemvPath, QuantLinear};
use crate::lenet::{binary_dot_reference, LeNet5, Precision};
use crate::model::{lenet_layer_shapes, sample_batch, QuantModel};
use crate::requant::Requant;
use pluto_core::cluster::Cluster;
use pluto_core::lut::catalog;
use pluto_core::session::{CostReport, ExecConfig, Session, Workload};
use pluto_core::{DesignKind, PlutoError};
use pluto_dram::{PicoJoules, Picos};
use sim_support::{Rng, SeedableRng, StdRng};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// The execution configuration of the QNN kernels: the measurement
/// geometry with 64 subarrays per bank (enough for the binary-dot and
/// nibble-plane stores; the direct-path workloads raise the pool
/// further through [`Workload::min_subarrays`]).
pub fn qnn_exec_config(design: DesignKind) -> ExecConfig {
    let mut cfg = ExecConfig::measurement(design);
    cfg.subarrays_per_bank = 64;
    cfg
}

/// The execution configuration of the direct-path inference pipeline:
/// measurement geometry with a subarray pool wide enough to hold a
/// partitioned 65 536-entry product store, a requantization store, and
/// the data subarray simultaneously.
pub fn mlp_exec_config(design: DesignKind) -> ExecConfig {
    let mut cfg = ExecConfig::measurement(design);
    cfg.subarrays_per_bank = DIRECT_SUBARRAYS;
    cfg
}

/// Subarray demand of the direct 8-bit path: 128 §5.6 segments × 2
/// subarrays for the product store, 8 × 2 for the 12-bit requantization
/// store, plus the data subarray and slack.
const DIRECT_SUBARRAYS: u16 = 280;

/// The kernel proper, on a bare machine (shared by the session path and
/// the cluster workload).
///
/// # Errors
/// Propagates machine errors.
///
/// # Panics
/// Panics if the row counts or pair lengths differ.
pub fn binary_dot_machine(
    m: &mut pluto_core::PlutoMachine,
    a_rows: &[Vec<u8>],
    b_rows: &[Vec<u8>],
) -> Result<Vec<i32>, PlutoError> {
    assert_eq!(a_rows.len(), b_rows.len());
    let xnor1 = catalog::xnor(1)?;
    let bc8 = catalog::popcount(8)?;
    let mut out = Vec::with_capacity(a_rows.len());
    // Staging buffers reused across every row pair (a LeNet-scale layer
    // runs hundreds of pairs through one machine).
    let mut av: Vec<u64> = Vec::new();
    let mut bv: Vec<u64> = Vec::new();
    let mut bytes: Vec<u64> = Vec::new();
    for (a, b) in a_rows.iter().zip(b_rows) {
        assert_eq!(a.len(), b.len());
        let n = a.len();
        av.clear();
        av.extend(a.iter().map(|&v| v as u64 & 1));
        bv.clear();
        bv.extend(b.iter().map(|&v| v as u64 & 1));
        // Bulk XNOR over all positions of this pair.
        let x = m.apply2(&xnor1, &av, 1, &bv, 1)?.values;
        // Pack XNOR bits into bytes and BC-8 them.
        bytes.clear();
        bytes.extend(x.chunks(8).map(|c| {
            c.iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | (b << i))
        }));
        let counts = m.apply(&bc8, &bytes)?.values;
        let same: u64 = counts.iter().sum();
        out.push(2 * same as i32 - n as i32);
    }
    Ok(out)
}

/// Rows per [`BinaryDotWorkload`] shard: small enough that a LeNet-scale
/// layer fans out across every worker, large enough to amortize shard
/// overhead.
const DOT_SHARD_ROWS: usize = 16;

/// Shared output sink for the shards of one submission:
/// `(first_row, values)` per shard, reassembled in row order by
/// [`binary_dot_cluster`] / [`gemv_cluster`].
type DotSink = Arc<Mutex<Vec<(usize, Vec<i32>)>>>;

/// The binary XNOR-popcount inner product as a first-class pluggable
/// [`Workload`]: the QNN's per-layer LUT maps run through the same
/// cluster pool as every other scenario, with row pairs sharded across
/// workers ([`Workload::shards`]) and outputs delivered through a shared
/// sink.
#[derive(Debug)]
pub struct BinaryDotWorkload {
    a_rows: Vec<Vec<u8>>,
    b_rows: Vec<Vec<u8>>,
    /// Global index of `a_rows[0]` (shards preserve row order).
    first_row: usize,
    sink: DotSink,
}

impl BinaryDotWorkload {
    /// A workload over paired bit-vector rows (1 ⇔ +1), publishing each
    /// shard's dot products into `sink`.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn new(a_rows: Vec<Vec<u8>>, b_rows: Vec<Vec<u8>>, sink: DotSink) -> Self {
        assert_eq!(a_rows.len(), b_rows.len());
        BinaryDotWorkload {
            a_rows,
            b_rows,
            first_row: 0,
            sink,
        }
    }
}

impl Workload for BinaryDotWorkload {
    fn id(&self) -> &'static str {
        "QNN-BinaryDot"
    }

    fn prepare(&mut self, _rng: &mut StdRng) {
        // Inputs are caller-provided (network activations/weights), not
        // generated.
    }

    fn run_pluto(&mut self, session: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let out = binary_dot_machine(session.machine_mut(), &self.a_rows, &self.b_rows)?;
        let encoded = encode_i32(&out);
        self.sink
            .lock()
            .expect("dot sink poisoned")
            .push((self.first_row, out));
        Ok(encoded)
    }

    fn run_reference(&self) -> Vec<u8> {
        let expect: Vec<i32> = self
            .a_rows
            .iter()
            .zip(&self.b_rows)
            .map(|(a, b)| binary_dot_reference(a, b))
            .collect();
        encode_i32(&expect)
    }

    fn input_bytes(&self) -> f64 {
        // Two bit operands per position.
        let bits: usize = self.a_rows.iter().map(Vec::len).sum();
        (2 * bits) as f64 / 8.0
    }

    fn min_subarrays(&self) -> u16 {
        64
    }

    fn shards(&self) -> Vec<Box<dyn Workload>> {
        self.a_rows
            .chunks(DOT_SHARD_ROWS)
            .zip(self.b_rows.chunks(DOT_SHARD_ROWS))
            .enumerate()
            .map(|(i, (ca, cb))| {
                Box::new(BinaryDotWorkload {
                    a_rows: ca.to_vec(),
                    b_rows: cb.to_vec(),
                    first_row: self.first_row + i * DOT_SHARD_ROWS,
                    sink: Arc::clone(&self.sink),
                }) as Box<dyn Workload>
            })
            .collect()
    }
}

fn encode_i32(values: &[i32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Computes many binary dot products through a [`Cluster`]: the row
/// pairs shard across the pool's workers, every shard is validated
/// against the reference, and the outputs reassemble in row order.
/// Returns the dot products plus the reduced (shard-summed, §6-style)
/// cost report of the whole batch.
///
/// # Errors
/// Propagates machine/workload errors; fails if validation missed
/// (`InvalidProgram`) — which the reference comparison precludes short of
/// a simulator bug.
///
/// # Panics
/// Panics if `cluster` has submissions pending from before this call:
/// this function submits and runs one batch, so callers must collect
/// their own in-flight batch with [`Cluster::run`] first.
pub fn binary_dot_cluster(
    cluster: &mut Cluster,
    design: DesignKind,
    a_rows: &[Vec<u8>],
    b_rows: &[Vec<u8>],
) -> Result<(Vec<i32>, CostReport), PlutoError> {
    let sink: DotSink = Arc::new(Mutex::new(Vec::new()));
    let workload = BinaryDotWorkload::new(a_rows.to_vec(), b_rows.to_vec(), Arc::clone(&sink));
    let report = run_one_sharded(cluster, qnn_exec_config(design), Box::new(workload))?;
    let mut parts = sink.lock().expect("dot sink poisoned");
    parts.sort_by_key(|(first_row, _)| *first_row);
    let out: Vec<i32> = parts.drain(..).flat_map(|(_, vals)| vals).collect();
    Ok((out, report))
}

/// Submits one workload sharded, runs the batch, and enforces
/// validation.
fn run_one_sharded(
    cluster: &mut Cluster,
    config: ExecConfig,
    workload: Box<dyn Workload>,
) -> Result<CostReport, PlutoError> {
    assert_eq!(
        cluster.pending(),
        0,
        "this helper runs its own batch; collect pending submissions with run() first"
    );
    let id = workload.id();
    cluster.submit_sharded(config, workload);
    let report = cluster.run()?.remove(0);
    if !report.validated {
        return Err(PlutoError::InvalidProgram {
            reason: format!("{id} mismatched the reference"),
        });
    }
    Ok(report)
}

/// Output-neuron rows per [`QnnGemvWorkload`] shard: a LeNet-scale
/// layer's 32-row GEMV fans out across four workers.
pub const GEMV_TILE_ROWS: usize = 8;

/// One [`QuantLinear`] GEMV (plus optional [`Requant`] stage) as a
/// first-class [`Workload`]: multiplies run as LUT queries
/// ([`GemvPath`]), accumulation is host-side, and
/// [`Workload::shards`] tiles the output neurons in
/// [`GEMV_TILE_ROWS`]-row slices — the shard-by-neuron-tile axis of
/// `DESIGN.md` §12.
#[derive(Debug)]
pub struct QnnGemvWorkload {
    linear: Arc<QuantLinear>,
    requant: Option<Requant>,
    x: Vec<i32>,
    path: GemvPath,
    /// The output-neuron tile this instance computes.
    rows: Range<usize>,
    /// Shards (and explicit-input workloads) pin their operands;
    /// registry instances regenerate from the session rng.
    pinned: bool,
    sink: Option<DotSink>,
}

impl QnnGemvWorkload {
    /// The registry scenario: a 32×48 int8 GEMV on the direct path with
    /// a 12-bit requantization stage, operands regenerated from the
    /// session rng on [`Workload::prepare`].
    #[must_use]
    pub fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(0);
        let (linear, x) = Self::regenerate(&mut rng);
        QnnGemvWorkload {
            linear,
            requant: Some(Requant::new(12, 2, 8)),
            x,
            path: GemvPath::Direct,
            rows: 0..REGISTRY_OUT,
            pinned: false,
            sink: None,
        }
    }

    /// A pinned workload over explicit operands, publishing each tile's
    /// outputs into `sink` for row-order reassembly.
    ///
    /// # Panics
    /// Panics if `x` disagrees with the layer shape.
    #[must_use]
    pub fn with_input(
        linear: Arc<QuantLinear>,
        requant: Option<Requant>,
        x: Vec<i32>,
        path: GemvPath,
        sink: Option<DotSink>,
    ) -> Self {
        assert_eq!(x.len(), linear.in_features(), "activation count");
        let rows = 0..linear.out_features();
        QnnGemvWorkload {
            linear,
            requant,
            x,
            path,
            rows,
            pinned: true,
            sink,
        }
    }

    fn regenerate(rng: &mut StdRng) -> (Arc<QuantLinear>, Vec<i32>) {
        let linear = Arc::new(QuantLinear::seeded(
            "qnn-gemv8",
            REGISTRY_OUT,
            REGISTRY_IN,
            8,
            -16..=15,
            rng,
        ));
        let x = (0..REGISTRY_IN).map(|_| rng.gen_range(-64..=63)).collect();
        (linear, x)
    }
}

const REGISTRY_OUT: usize = 32;
const REGISTRY_IN: usize = 48;

impl Default for QnnGemvWorkload {
    fn default() -> Self {
        QnnGemvWorkload::new()
    }
}

impl Workload for QnnGemvWorkload {
    fn id(&self) -> &'static str {
        pluto_baselines::WorkloadId::QnnGemv8.label()
    }

    fn prepare(&mut self, rng: &mut StdRng) {
        if self.pinned {
            return;
        }
        let (linear, x) = Self::regenerate(rng);
        self.rows = 0..linear.out_features();
        self.linear = linear;
        self.x = x;
    }

    fn run_pluto(&mut self, session: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let m = session.machine_mut();
        let accs = self
            .linear
            .forward_rows_on(m, &self.x, self.path, self.rows.clone())?;
        let out = match &self.requant {
            Some(r) => r.apply_on(m, &accs)?,
            None => accs,
        };
        let encoded = encode_i32(&out);
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("gemv sink poisoned")
                .push((self.rows.start, out));
        }
        Ok(encoded)
    }

    fn run_reference(&self) -> Vec<u8> {
        let accs = self
            .linear
            .forward_rows_reference(&self.x, self.rows.clone());
        let out: Vec<i32> = match &self.requant {
            Some(r) => accs.iter().map(|&a| r.apply_host(a)).collect(),
            None => accs,
        };
        encode_i32(&out)
    }

    fn input_bytes(&self) -> f64 {
        // The tile's weight rows plus one activation vector.
        let operands = (self.rows.len() + 1) * self.linear.in_features();
        (operands * self.linear.width() as usize) as f64 / 8.0
    }

    fn min_subarrays(&self) -> u16 {
        match self.path {
            GemvPath::Direct => DIRECT_SUBARRAYS,
            GemvPath::NibblePlane => 64,
        }
    }

    fn shards(&self) -> Vec<Box<dyn Workload>> {
        let rows: Vec<usize> = self.rows.clone().collect();
        rows.chunks(GEMV_TILE_ROWS)
            .map(|tile| {
                Box::new(QnnGemvWorkload {
                    linear: Arc::clone(&self.linear),
                    requant: self.requant,
                    x: self.x.clone(),
                    path: self.path,
                    rows: tile[0]..tile[tile.len() - 1] + 1,
                    pinned: true,
                    sink: self.sink.clone(),
                }) as Box<dyn Workload>
            })
            .collect()
    }
}

/// Runs one [`QuantLinear`] layer (GEMV + optional requantization)
/// through a [`Cluster`], sharded by output-neuron tile, with outputs
/// reassembled in row order. Returns the layer's output vector plus the
/// shard-reduced cost report.
///
/// # Errors
/// Propagates machine/workload errors; `InvalidProgram` on a validation
/// miss.
///
/// # Panics
/// Panics if `cluster` has submissions pending from before this call.
pub fn gemv_cluster(
    cluster: &mut Cluster,
    config: ExecConfig,
    linear: &Arc<QuantLinear>,
    requant: Option<Requant>,
    x: &[i32],
    path: GemvPath,
) -> Result<(Vec<i32>, CostReport), PlutoError> {
    let sink: DotSink = Arc::new(Mutex::new(Vec::new()));
    let workload = QnnGemvWorkload::with_input(
        Arc::clone(linear),
        requant,
        x.to_vec(),
        path,
        Some(Arc::clone(&sink)),
    );
    let report = run_one_sharded(cluster, config, Box::new(workload))?;
    let mut parts = sink.lock().expect("gemv sink poisoned");
    parts.sort_by_key(|(first_row, _)| *first_row);
    let out: Vec<i32> = parts.drain(..).flat_map(|(_, vals)| vals).collect();
    Ok((out, report))
}

/// Runs a whole [`QuantModel`] forward pass through a [`Cluster`]:
/// every layer is one [`gemv_cluster`] batch (output-neuron tiles
/// across the pool), activations flow host-side between layers, and
/// the per-layer reports reduce into one pipeline report. Returns the
/// logits plus that reduced report; `layer_reports` gives the
/// per-layer breakdown when the caller wants it.
///
/// # Errors
/// Propagates machine/workload errors.
///
/// # Panics
/// Panics if `cluster` has submissions pending, or the model is empty.
pub fn mlp_cluster(
    cluster: &mut Cluster,
    config: ExecConfig,
    model: &QuantModel,
    x: &[i32],
    path: GemvPath,
) -> Result<(Vec<i32>, CostReport), PlutoError> {
    let (out, mut reports) = mlp_cluster_layers(cluster, config, model, x, path)?;
    let mut total = reports.remove(0);
    for report in &reports {
        total.absorb(report);
    }
    total.workload = "QNN-MLP";
    Ok((out, total))
}

/// [`mlp_cluster`] with the per-layer [`CostReport`] breakdown kept
/// separate (one report per [`crate::model::Layer`], in layer order).
///
/// # Errors
/// Propagates machine/workload errors.
///
/// # Panics
/// Panics if `cluster` has submissions pending, or the model is empty.
pub fn mlp_cluster_layers(
    cluster: &mut Cluster,
    config: ExecConfig,
    model: &QuantModel,
    x: &[i32],
    path: GemvPath,
) -> Result<(Vec<i32>, Vec<CostReport>), PlutoError> {
    assert!(!model.layers.is_empty(), "empty model");
    let mut act = x.to_vec();
    let mut reports = Vec::with_capacity(model.layers.len());
    for layer in &model.layers {
        let (out, report) = gemv_cluster(
            cluster,
            config.clone(),
            &layer.linear,
            layer.requant,
            &act,
            path,
        )?;
        act = out;
        reports.push(report);
    }
    Ok((act, reports))
}

/// An end-to-end quantized MLP forward pass as a first-class
/// [`Workload`]: synthetic MNIST digits through
/// [`QuantModel::mnist_mlp`] on one machine, every layer a GEMV query
/// stream plus a requantization query stream, validated against the
/// host `i32` oracle. Batches of two or more samples shard by sample
/// across the cluster ([`QnnMlpWorkload::with_batch`]); the registry
/// instance runs one.
#[derive(Debug)]
pub struct QnnMlpWorkload {
    model: Arc<QuantModel>,
    samples: Vec<(u8, Vec<i32>)>,
    path: GemvPath,
    batch: usize,
    first_sample: usize,
    pinned: bool,
    sink: Option<DotSink>,
}

impl QnnMlpWorkload {
    /// The registry scenario: one synthetic MNIST digit through the
    /// 196→32→16→10 reference MLP on the direct path, the sample
    /// regenerated from the session rng on [`Workload::prepare`].
    #[must_use]
    pub fn new() -> Self {
        QnnMlpWorkload::with_batch(1)
    }

    /// A batch of `samples` digits; batches of two or more shard by
    /// sample across the cluster.
    ///
    /// # Panics
    /// Panics on an empty batch.
    #[must_use]
    pub fn with_batch(samples: usize) -> Self {
        assert!(samples > 0, "empty batch");
        QnnMlpWorkload {
            model: Arc::new(QuantModel::mnist_mlp(MLP_MODEL_SEED)),
            samples: sample_batch(0, samples),
            path: GemvPath::Direct,
            batch: samples,
            first_sample: 0,
            pinned: false,
            sink: None,
        }
    }

    /// The model every instance runs (seeded, deterministic).
    #[must_use]
    pub fn model(&self) -> &QuantModel {
        &self.model
    }
}

/// Seed of the registry MLP's weights ([`QuantModel::mnist_mlp`]).
pub const MLP_MODEL_SEED: u64 = 7;

impl Default for QnnMlpWorkload {
    fn default() -> Self {
        QnnMlpWorkload::new()
    }
}

impl Workload for QnnMlpWorkload {
    fn id(&self) -> &'static str {
        pluto_baselines::WorkloadId::QnnMlp.label()
    }

    fn prepare(&mut self, rng: &mut StdRng) {
        if self.pinned {
            return;
        }
        self.samples = sample_batch(rng.gen(), self.batch);
    }

    fn run_pluto(&mut self, session: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let m = session.machine_mut();
        let mut all = Vec::new();
        for (i, (_, x)) in self.samples.iter().enumerate() {
            let logits = self.model.forward_on(m, x, self.path)?;
            if let Some(sink) = &self.sink {
                sink.lock()
                    .expect("mlp sink poisoned")
                    .push((self.first_sample + i, logits.clone()));
            }
            all.extend(logits);
        }
        Ok(encode_i32(&all))
    }

    fn run_reference(&self) -> Vec<u8> {
        let all: Vec<i32> = self
            .samples
            .iter()
            .flat_map(|(_, x)| self.model.forward_reference(x))
            .collect();
        encode_i32(&all)
    }

    fn input_bytes(&self) -> f64 {
        let per_sample = self.model.layers[0].linear.in_features();
        (self.samples.len() * per_sample) as f64
    }

    fn min_subarrays(&self) -> u16 {
        match self.path {
            GemvPath::Direct => DIRECT_SUBARRAYS,
            GemvPath::NibblePlane => 64,
        }
    }

    fn shards(&self) -> Vec<Box<dyn Workload>> {
        if self.samples.len() < 2 {
            return Vec::new();
        }
        self.samples
            .chunks(1)
            .enumerate()
            .map(|(i, chunk)| {
                Box::new(QnnMlpWorkload {
                    model: Arc::clone(&self.model),
                    samples: chunk.to_vec(),
                    path: self.path,
                    batch: chunk.len(),
                    first_sample: self.first_sample + i,
                    pinned: true,
                    sink: self.sink.clone(),
                }) as Box<dyn Workload>
            })
            .collect()
    }
}

/// Number of bulk LUT queries the full LeNet-5 needs per inference
/// batch, per precision — derived from the layer graph
/// ([`lenet_layer_shapes`]): total MACs are the sum of every layer
/// shape's `out × in`, and a batch is one source row of elements (8192
/// slots on the paper's DDR4 rows). MACs map to queries as:
///
/// * 1-bit: one XNOR query + one BC-8 query per 8·8192 MACs (bit-packed),
/// * 4-bit: one mul4 query + two 4-bit add queries per 8192 MACs.
pub fn qnn_query_count(net: &LeNet5) -> u64 {
    let macs: u64 = lenet_layer_shapes(net)
        .iter()
        .map(crate::model::LayerShape::mac_count)
        .sum();
    batched_queries(macs, net.precision)
}

/// Per-layer view of [`qnn_query_count`]: `(layer name, queries)` with
/// the same MAC→query mapping batched within each layer. Layer-local
/// batching can only pad (each layer rounds its own tail row up), so
/// the per-layer counts sum to at least the cross-layer total.
pub fn qnn_layer_query_counts(net: &LeNet5) -> Vec<(String, u64)> {
    lenet_layer_shapes(net)
        .into_iter()
        .map(|shape| {
            let queries = batched_queries(shape.mac_count(), net.precision);
            (shape.name, queries)
        })
        .collect()
}

fn batched_queries(macs: u64, precision: Precision) -> u64 {
    let slots = 8192u64;
    match precision {
        Precision::Bit1 => 2 * macs.div_ceil(8 * slots).max(1) * 8,
        Precision::Bit4 => 3 * macs.div_ceil(slots).max(1),
    }
}

/// Modeled pLUTo-BSA inference cost of one image (time and energy) from
/// the query count and the Table 1 closed forms.
pub fn pluto_inference_cost(net: &LeNet5, design: DesignKind) -> (Picos, PicoJoules) {
    let model = pluto_core::DesignModel::new(
        design,
        pluto_dram::TimingParams::ddr4_2400(),
        pluto_dram::EnergyModel::ddr4(),
    );
    let queries = qnn_query_count(net);
    // QNN LUTs are small: XNOR(1) has 4 rows; mul4/add4 have 256.
    let lut_elems = match net.precision {
        Precision::Bit1 => 8, // XNOR + packing helpers
        Precision::Bit4 => 256,
    };
    // 16-subarray parallelism (Table 3 default).
    let time = Picos::from_ps(model.query_latency(lut_elems).as_ps() * queries / 16);
    let energy = model.query_energy(lut_elems).times(queries);
    (time, energy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lenet::binary_dot_reference;
    use sim_support::{Rng, SeedableRng, StdRng};

    #[test]
    fn binary_dot_matches_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<(Vec<u8>, Vec<u8>)> = (0..6)
            .map(|_| {
                let a: Vec<u8> = (0..64).map(|_| rng.gen_range(0..2u8)).collect();
                let b: Vec<u8> = (0..64).map(|_| rng.gen_range(0..2u8)).collect();
                (a, b)
            })
            .collect();
        let a_rows: Vec<Vec<u8>> = rows.iter().map(|r| r.0.clone()).collect();
        let b_rows: Vec<Vec<u8>> = rows.iter().map(|r| r.1.clone()).collect();
        let mut session = Session::with_config(qnn_exec_config(DesignKind::Gmc)).unwrap();
        let out = binary_dot_machine(session.machine_mut(), &a_rows, &b_rows).unwrap();
        for (i, (a, b)) in rows.iter().enumerate() {
            assert_eq!(out[i], binary_dot_reference(a, b), "row {i}");
        }
    }

    #[test]
    fn cluster_dot_matches_session_dot_for_any_worker_count() {
        let mut rng = StdRng::seed_from_u64(11);
        // 40 rows -> three shards of 16/16/8.
        let a_rows: Vec<Vec<u8>> = (0..40)
            .map(|_| (0..32).map(|_| rng.gen_range(0..2u8)).collect())
            .collect();
        let b_rows: Vec<Vec<u8>> = (0..40)
            .map(|_| (0..32).map(|_| rng.gen_range(0..2u8)).collect())
            .collect();
        let mut session = Session::with_config(qnn_exec_config(DesignKind::Bsa)).unwrap();
        let serial = binary_dot_machine(session.machine_mut(), &a_rows, &b_rows).unwrap();
        for workers in [1, 4] {
            let mut cluster = Cluster::new(workers);
            let (out, report) =
                binary_dot_cluster(&mut cluster, DesignKind::Bsa, &a_rows, &b_rows).unwrap();
            assert_eq!(out, serial, "{workers} workers");
            assert!(report.validated);
            assert!(report.time > Picos::ZERO);
        }
    }

    #[test]
    fn cluster_dot_reduction_is_reproducible() {
        let a = vec![vec![1u8, 0, 1, 1]; 33];
        let b = vec![vec![1u8, 1, 0, 1]; 33];
        let run = || {
            let mut cluster = Cluster::new(3);
            binary_dot_cluster(&mut cluster, DesignKind::Gmc, &a, &b).unwrap()
        };
        let (out1, rep1) = run();
        let (out2, rep2) = run();
        assert_eq!(out1, out2);
        assert_eq!(rep1, rep2, "shard reduction must be bit-stable");
    }

    #[test]
    fn query_counts_scale_with_precision() {
        let net1 = LeNet5::new(Precision::Bit1, 0);
        let net4 = LeNet5::new(Precision::Bit4, 0);
        assert!(
            qnn_query_count(&net4) > qnn_query_count(&net1),
            "4-bit needs more queries than binary"
        );
    }

    #[test]
    fn layer_query_counts_cover_the_graph() {
        for precision in [Precision::Bit1, Precision::Bit4] {
            let net = LeNet5::new(precision, 0);
            let layers = qnn_layer_query_counts(&net);
            assert_eq!(layers.len(), 5, "conv1/conv2/fc1/fc2/fc3");
            assert!(layers.iter().all(|(_, q)| *q > 0));
            let sum: u64 = layers.iter().map(|(_, q)| q).sum();
            assert!(
                sum >= qnn_query_count(&net),
                "per-layer batching can only pad: {sum}"
            );
        }
    }

    #[test]
    fn pluto_cost_orderings() {
        // 4-bit inference is slower than 1-bit (Table 7: 23 µs vs 30 µs),
        // and both complete in tens of microseconds.
        let net1 = LeNet5::new(Precision::Bit1, 0);
        let net4 = LeNet5::new(Precision::Bit4, 0);
        let (t1, e1) = pluto_inference_cost(&net1, DesignKind::Bsa);
        let (t4, e4) = pluto_inference_cost(&net4, DesignKind::Bsa);
        assert!(t4 > t1);
        assert!(e4 > e1);
        assert!(t1.as_us() < 200.0, "1-bit time {t1}");
    }
}
