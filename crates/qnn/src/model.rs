//! The layer graph: composing GEMV-by-LUT and requantization stages
//! into an end-to-end quantized forward pass (`DESIGN.md` §12).
//!
//! A [`QuantModel`] is an ordered list of [`Layer`]s, each a
//! [`QuantLinear`] GEMV followed by an optional [`Requant`] stage (the
//! logits layer keeps raw accumulators). The same graph runs four ways,
//! all bit-identical to the host `i32` oracle:
//!
//! - [`QuantModel::forward_reference`] — the pure-host oracle;
//! - [`QuantModel::forward_on`] — serially on one [`PlutoMachine`],
//!   every multiply and requantization a bulk LUT query;
//! - sharded across a [`pluto_core::cluster::Cluster`] by output-neuron
//!   tile ([`crate::pluto_exec::mlp_cluster`]);
//! - streamed through [`pluto_core::serve`] as per-sample single-LUT
//!   queries ([`QuantModel::serve_infer`]).
//!
//! [`QuantModel::mnist_mlp`] builds the MNIST-sized reference model
//! (196→32→16→10 over 2×2-pooled [`crate::mnist::SyntheticMnist`]
//! digits), and [`lenet_layer_shapes`] projects the PR-3-era
//! [`LeNet5`] network onto the same per-layer shape view so Table 7's
//! query counts derive from a layer graph instead of hand-kept
//! constants.

use crate::gemv::{smul_lut, to_field, to_signed, GemvPath, QuantLinear};
use crate::lenet::LeNet5;
use crate::mnist::SIDE;
use crate::requant::Requant;
use crate::tensor::Tensor;
use pluto_core::serve::{QuerySpec, Server};
use pluto_core::session::ExecConfig;
use pluto_core::{PlutoError, PlutoMachine};
use sim_support::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

/// One pipeline layer: a GEMV stage plus an optional requantization
/// stage squeezing accumulators back to the next layer's operand width.
#[derive(Debug, Clone)]
pub struct Layer {
    /// The quantized matrix–vector stage (shared with cluster shards).
    pub linear: Arc<QuantLinear>,
    /// The narrowing stage; `None` keeps raw accumulators (logits).
    pub requant: Option<Requant>,
}

impl Layer {
    /// Host `i32` oracle through both stages.
    #[must_use]
    pub fn forward_reference(&self, x: &[i32]) -> Vec<i32> {
        let accs = self.linear.forward_reference(x);
        match &self.requant {
            Some(r) => accs.iter().map(|&a| r.apply_host(a)).collect(),
            None => accs,
        }
    }

    /// Both stages on a machine: GEMV queries, host accumulation, one
    /// requantization query stream.
    ///
    /// # Errors
    /// Propagates machine errors.
    pub fn forward_on(
        &self,
        m: &mut PlutoMachine,
        x: &[i32],
        path: GemvPath,
    ) -> Result<Vec<i32>, PlutoError> {
        let accs = self.linear.forward_on(m, x, path)?;
        match &self.requant {
            Some(r) => r.apply_on(m, &accs),
            None => Ok(accs),
        }
    }

    /// Bulk LUT lookups one forward pass of this layer issues.
    #[must_use]
    pub fn lut_lookups(&self, path: GemvPath) -> u64 {
        let requant = if self.requant.is_some() {
            self.linear.out_features() as u64
        } else {
            0
        };
        self.linear.lut_lookups(path) + requant
    }
}

/// An end-to-end quantized model: layers applied in order.
#[derive(Debug, Clone)]
pub struct QuantModel {
    /// The pipeline, input side first.
    pub layers: Vec<Layer>,
}

impl QuantModel {
    /// The MNIST-sized reference MLP: 196→32→16→10 at 8-bit operands,
    /// weights seeded in `-8..=7`, hidden layers requantized through a
    /// 12-bit window (`>> 2`, clamp to int8), raw logits out. Input is
    /// [`QuantModel::input_from_image`]'s pooled-and-quantized vector.
    #[must_use]
    pub fn mnist_mlp(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let hidden = Requant::new(12, 2, 8);
        let mut layer = |name: &str, out, inp, requant| Layer {
            linear: Arc::new(QuantLinear::seeded(name, out, inp, 8, -8..=7, &mut rng)),
            requant,
        };
        QuantModel {
            layers: vec![
                layer("mlp-fc1", 32, POOLED * POOLED, Some(hidden)),
                layer("mlp-fc2", 16, 32, Some(hidden)),
                layer("mlp-logits", 10, 16, None),
            ],
        }
    }

    /// Lowers a 28×28 synthetic digit to the model's input vector: 2×2
    /// average pool to 14×14, then the LeNet-style `(v − 128) / 16`
    /// quantization clamped to the signed 8-bit operand range.
    ///
    /// # Panics
    /// If the image is not `[1, 28, 28]`.
    #[must_use]
    pub fn input_from_image(img: &Tensor) -> Vec<i32> {
        assert_eq!(img.shape(), [1, SIDE, SIDE], "expected a 1x28x28 image");
        let mut x = Vec::with_capacity(POOLED * POOLED);
        for py in 0..POOLED {
            for px in 0..POOLED {
                let sum = img.at3(0, 2 * py, 2 * px)
                    + img.at3(0, 2 * py, 2 * px + 1)
                    + img.at3(0, 2 * py + 1, 2 * px)
                    + img.at3(0, 2 * py + 1, 2 * px + 1);
                x.push(((sum / 4 - 128) / 16).clamp(-8, 7));
            }
        }
        x
    }

    /// Host `i32` oracle for the whole pipeline.
    #[must_use]
    pub fn forward_reference(&self, x: &[i32]) -> Vec<i32> {
        self.layers
            .iter()
            .fold(x.to_vec(), |act, layer| layer.forward_reference(&act))
    }

    /// Full forward pass on one machine, layer by layer. LUT residency
    /// is content-keyed, so every layer at the same operand width shares
    /// one product store and the hidden layers share one requantization
    /// store.
    ///
    /// # Errors
    /// Propagates machine errors.
    pub fn forward_on(
        &self,
        m: &mut PlutoMachine,
        x: &[i32],
        path: GemvPath,
    ) -> Result<Vec<i32>, PlutoError> {
        let mut act = x.to_vec();
        for layer in &self.layers {
            act = layer.forward_on(m, &act, path)?;
        }
        Ok(act)
    }

    /// Bulk LUT lookups one full forward pass issues on `path`.
    #[must_use]
    pub fn lut_lookups(&self, path: GemvPath) -> u64 {
        self.layers.iter().map(|l| l.lut_lookups(path)).sum()
    }

    /// Per-layer shape view of the pipeline.
    #[must_use]
    pub fn layer_shapes(&self) -> Vec<LayerShape> {
        self.layers
            .iter()
            .map(|l| LayerShape {
                name: l.linear.name().to_string(),
                out_features: l.linear.out_features(),
                in_features: l.linear.in_features(),
            })
            .collect()
    }

    /// Streams one sample's inference through a serve [`Server`] as
    /// single-LUT queries (the direct path only — the nibble-plane
    /// lowering is a multi-query program, not a servable single query).
    /// Per layer: one product-stream query against the shared signed
    /// multiply table (operand fields pre-merged host-side, exactly the
    /// `apply2` packing), host PnM-core accumulation, then one
    /// requantization query.
    ///
    /// # Errors
    /// Propagates serve/machine errors.
    pub fn serve_infer(
        &self,
        server: &mut Server,
        config: &ExecConfig,
        x: &[i32],
    ) -> Result<Vec<i32>, PlutoError> {
        let mut act = x.to_vec();
        for layer in &self.layers {
            let w = layer.linear.width();
            let lut = Arc::new(smul_lut(w)?);
            let xf: Vec<u64> = act.iter().map(|&v| to_field(v, w)).collect();
            let mut merged = Vec::with_capacity(layer.linear.mac_count() as usize);
            for o in 0..layer.linear.out_features() {
                for (wgt, &xv) in layer.linear.row(o).iter().zip(&xf) {
                    merged.push((to_field(*wgt, w) << w) | xv);
                }
            }
            let ticket = server.enqueue(QuerySpec {
                config: config.clone(),
                lut,
                inputs: merged,
            });
            let reply = ticket.wait()?;
            let accs: Vec<i32> = reply
                .values
                .chunks(layer.linear.in_features())
                .map(|c| {
                    c.iter()
                        .map(|&p| i64::from(to_signed(p, 2 * w)))
                        .sum::<i64>() as i32
                })
                .collect();
            act = match &layer.requant {
                Some(r) => {
                    let indices: Vec<u64> = accs.iter().map(|&a| r.index_of(a)).collect();
                    let ticket = server.enqueue(QuerySpec {
                        config: config.clone(),
                        lut: Arc::new(r.lut()?),
                        inputs: indices,
                    });
                    ticket
                        .wait()?
                        .values
                        .into_iter()
                        .map(|v| to_signed(v, r.out_width))
                        .collect()
                }
                None => accs,
            };
        }
        Ok(act)
    }
}

/// The pooled input side length of [`QuantModel::mnist_mlp`].
pub const POOLED: usize = SIDE / 2;

/// One layer's GEMV shape: `out_features × in_features` MACs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerShape {
    /// Layer name (reporting label).
    pub name: String,
    /// Output values the layer produces (neurons × spatial positions).
    pub out_features: usize,
    /// MACs per output value (receptive field / input width).
    pub in_features: usize,
}

impl LayerShape {
    /// Multiply–accumulate count of the layer.
    #[must_use]
    pub fn mac_count(&self) -> u64 {
        (self.out_features * self.in_features) as u64
    }
}

/// Projects a [`LeNet5`] network onto the per-layer shape view: each
/// convolution becomes the GEMV of its im2col lowering (one output
/// value per channel × position, one MAC per receptive-field tap), each
/// fully connected layer maps directly. Spatial dimensions are derived
/// from the network's own kernel sizes — nothing is hand-maintained —
/// so the Table 7 query counts follow the graph.
#[must_use]
pub fn lenet_layer_shapes(net: &LeNet5) -> Vec<LayerShape> {
    let side1 = SIDE - net.conv1.k + 1;
    let pooled1 = side1 / 2;
    let side2 = pooled1 - net.conv2.k + 1;
    let conv = |name: &str, layer: &crate::lenet::ConvLayer, side: usize| LayerShape {
        name: name.to_string(),
        out_features: layer.out_ch * side * side,
        in_features: layer.in_ch * layer.k * layer.k,
    };
    let fc = |name: &str, layer: &crate::lenet::FcLayer| LayerShape {
        name: name.to_string(),
        out_features: layer.out,
        in_features: layer.input,
    };
    vec![
        conv("conv1", &net.conv1, side1),
        conv("conv2", &net.conv2, side2),
        fc("fc1", &net.fc1),
        fc("fc2", &net.fc2),
        fc("fc3", &net.fc3),
    ]
}

/// A deterministic batch of model inputs drawn from the synthetic MNIST
/// set: `count` pooled-and-quantized digit vectors with their labels.
#[must_use]
pub fn sample_batch(seed: u64, count: usize) -> Vec<(u8, Vec<i32>)> {
    let digits = crate::mnist::SyntheticMnist::new(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51ab_c0de);
    (0..count)
        .map(|i| {
            let digit = (i % 10) as u8;
            let img = digits.image(digit, rng.gen::<u64>() % 8);
            (digit, QuantModel::input_from_image(&img))
        })
        .collect()
}
