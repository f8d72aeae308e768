//! GEMV-by-LUT: lowering quantized matrix–vector products onto bulk
//! LUT queries (the paper's "massively parallel lookup" substrate put
//! to work as an inference kernel).
//!
//! A [`QuantLinear`] layer holds an `out × in` matrix of signed
//! fixed-width integer weights. Its forward pass multiplies every
//! (weight, activation) pair in DRAM and accumulates on the host — the
//! PnM-core role from the paper's system model. Two lowerings of the
//! multiply are provided, the LoCalut capacity–computation axis made
//! explicit:
//!
//! - [`GemvPath::Direct`] — one query per MAC against a signed
//!   direct-product table ([`smul_lut`]). At 8-bit operands that table
//!   is 65 536 entries — `MulDirect8`-scale — and spills across 128
//!   §5.6 segments of a [`pluto_core::partition::PartitionedLut`].
//!   Latency-optimal (a partitioned query keeps single-query latency),
//!   capacity- and energy-hungry (every segment pays the sweep).
//! - [`GemvPath::NibblePlane`] — the `Mul8` contrast: operands split
//!   into 4-bit limb planes, one `mul4` query stream per limb pair
//!   (four streams at 8 bits), host shift-add plus a host sign
//!   correction. One 256-entry table serves every width; computation
//!   (query count) buys back capacity.
//!
//! Both paths are bit-identical to the host `i32` oracle
//! ([`QuantLinear::forward_reference`]) by construction, which is what
//! the differential suites pin.

use pluto_core::lut::{catalog, width_mask};
use pluto_core::{Lut, PlutoError, PlutoMachine};
use sim_support::{Rng, StdRng};
use std::ops::Range;

/// Smallest representable value of a signed `width`-bit operand.
#[must_use]
pub fn signed_min(width: u32) -> i32 {
    -(1i32 << (width - 1))
}

/// Largest representable value of a signed `width`-bit operand.
#[must_use]
pub fn signed_max(width: u32) -> i32 {
    (1i32 << (width - 1)) - 1
}

/// Encodes a signed value into a `width`-bit two's-complement field
/// (the raw LUT index / slot representation).
///
/// # Panics
/// If `v` does not fit the signed `width`-bit range.
#[must_use]
pub fn to_field(v: i32, width: u32) -> u64 {
    assert!(
        (signed_min(width)..=signed_max(width)).contains(&v),
        "{v} does not fit a signed {width}-bit field"
    );
    (v as i64 as u64) & width_mask(width)
}

/// Decodes a `width`-bit two's-complement field back to a signed value.
#[must_use]
pub fn to_signed(u: u64, width: u32) -> i32 {
    let m = 1u64 << (width - 1);
    ((u & width_mask(width)) ^ m).wrapping_sub(m) as i64 as i32
}

/// The signed direct-product table: input `2·width` bits (two packed
/// two's-complement operands), output `2·width` bits (their signed
/// product, two's-complement). At `width = 8` this is the 65 536-entry
/// `MulDirect8`-style table that partitions across 128 subarray
/// segments; at `width = 4` it fits a single subarray.
///
/// # Errors
/// Propagates [`Lut::from_fn`] shape errors.
pub fn smul_lut(width: u32) -> Result<Lut, PlutoError> {
    assert!((1..=8).contains(&width), "operand width must be 1..=8");
    Lut::from_fn(format!("smul{width}"), 2 * width, 2 * width, move |x| {
        let a = to_signed(x >> width, width);
        let b = to_signed(x & width_mask(width), width);
        to_field(a * b, 2 * width)
    })
}

/// Which multiply lowering a GEMV runs on (the LoCalut tradeoff axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemvPath {
    /// One direct signed-product query per MAC (capacity for latency).
    Direct,
    /// 4-bit limb-plane `mul4` queries + host shift-add and sign fixup
    /// (computation for capacity).
    NibblePlane,
}

impl GemvPath {
    /// Both lowerings, in sweep order.
    pub const ALL: [GemvPath; 2] = [GemvPath::Direct, GemvPath::NibblePlane];

    /// 4-bit limb planes per operand at this width (1 or 2).
    #[must_use]
    pub fn limbs(width: u32) -> u32 {
        width.div_ceil(4)
    }

    /// Bulk LUT lookups issued per MAC on this path.
    #[must_use]
    pub fn lookups_per_mac(self, width: u32) -> u64 {
        match self {
            GemvPath::Direct => 1,
            GemvPath::NibblePlane => u64::from(Self::limbs(width)) * u64::from(Self::limbs(width)),
        }
    }
}

impl std::fmt::Display for GemvPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GemvPath::Direct => write!(f, "direct"),
            GemvPath::NibblePlane => write!(f, "nibble"),
        }
    }
}

/// A quantized linear (fully connected) layer: `out_features ×
/// in_features` signed `width`-bit weights, row-major by output neuron.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantLinear {
    name: String,
    out_features: usize,
    in_features: usize,
    width: u32,
    weights: Vec<i32>,
}

impl QuantLinear {
    /// Builds a layer from explicit weights (row-major, `out × in`).
    ///
    /// # Panics
    /// If the weight count or any weight's range disagrees with the
    /// declared shape/width.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        out_features: usize,
        in_features: usize,
        width: u32,
        weights: Vec<i32>,
    ) -> Self {
        assert!((1..=8).contains(&width), "operand width must be 1..=8");
        assert!(out_features > 0 && in_features > 0, "degenerate shape");
        assert_eq!(weights.len(), out_features * in_features, "weight count");
        let (lo, hi) = (signed_min(width), signed_max(width));
        assert!(
            weights.iter().all(|w| (lo..=hi).contains(w)),
            "weights must fit signed {width}-bit operands"
        );
        QuantLinear {
            name: name.into(),
            out_features,
            in_features,
            width,
            weights,
        }
    }

    /// Builds a layer with seeded random weights drawn from
    /// `lo..=hi` (which must fit the operand width).
    #[must_use]
    pub fn seeded(
        name: impl Into<String>,
        out_features: usize,
        in_features: usize,
        width: u32,
        range: std::ops::RangeInclusive<i32>,
        rng: &mut StdRng,
    ) -> Self {
        let weights = (0..out_features * in_features)
            .map(|_| rng.gen_range(range.clone()))
            .collect();
        QuantLinear::new(name, out_features, in_features, width, weights)
    }

    /// Layer name (also names the LUTs it queries).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output neuron count.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Input activation count.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Operand width in bits (weights and activations).
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The weight row feeding output neuron `o`.
    #[must_use]
    pub fn row(&self, o: usize) -> &[i32] {
        &self.weights[o * self.in_features..(o + 1) * self.in_features]
    }

    /// Multiply–accumulate count of the full layer.
    #[must_use]
    pub fn mac_count(&self) -> u64 {
        (self.out_features * self.in_features) as u64
    }

    /// Bulk LUT lookups a full forward pass issues on `path`.
    #[must_use]
    pub fn lut_lookups(&self, path: GemvPath) -> u64 {
        self.mac_count() * path.lookups_per_mac(self.width)
    }

    /// Host `i32` oracle: raw accumulators for every output neuron.
    ///
    /// # Panics
    /// If `x` disagrees with `in_features` or exceeds the operand range.
    #[must_use]
    pub fn forward_reference(&self, x: &[i32]) -> Vec<i32> {
        self.forward_rows_reference(x, 0..self.out_features)
    }

    /// Host `i32` oracle restricted to one output-neuron tile.
    #[must_use]
    pub fn forward_rows_reference(&self, x: &[i32], rows: Range<usize>) -> Vec<i32> {
        self.check_input(x);
        rows.map(|o| self.row(o).iter().zip(x).map(|(&w, &v)| w * v).sum())
            .collect()
    }

    /// Full forward pass on a machine: every MAC's multiply runs as a
    /// LUT query, accumulation is host-side.
    ///
    /// # Errors
    /// Propagates machine errors.
    pub fn forward_on(
        &self,
        m: &mut PlutoMachine,
        x: &[i32],
        path: GemvPath,
    ) -> Result<Vec<i32>, PlutoError> {
        self.forward_rows_on(m, x, path, 0..self.out_features)
    }

    /// Forward pass restricted to one output-neuron tile (the cluster
    /// shard unit): weight rows `rows` only, in row order.
    ///
    /// # Errors
    /// Propagates machine errors.
    ///
    /// # Panics
    /// If `x` or `rows` disagrees with the layer shape.
    pub fn forward_rows_on(
        &self,
        m: &mut PlutoMachine,
        x: &[i32],
        path: GemvPath,
        rows: Range<usize>,
    ) -> Result<Vec<i32>, PlutoError> {
        self.check_input(x);
        assert!(rows.end <= self.out_features, "tile out of range");
        let w = self.width;
        let xf: Vec<u64> = x.iter().map(|&v| to_field(v, w)).collect();
        let mut wf = Vec::with_capacity(rows.len() * self.in_features);
        let mut af = Vec::with_capacity(rows.len() * self.in_features);
        for o in rows {
            wf.extend(self.row(o).iter().map(|&v| to_field(v, w)));
            af.extend_from_slice(&xf);
        }
        let products = match path {
            GemvPath::Direct => {
                // One bulk apply2 stream over the whole tile: the §5.6
                // store answers every pair, host decodes signed products.
                let lut = smul_lut(w)?;
                m.apply2(&lut, &wf, w, &af, w)?
                    .values
                    .into_iter()
                    .map(|p| i64::from(to_signed(p, 2 * w)))
                    .collect::<Vec<i64>>()
            }
            GemvPath::NibblePlane => self.nibble_products(m, &wf, &af)?,
        };
        Ok(products
            .chunks(self.in_features)
            .map(|c| c.iter().sum::<i64>() as i32)
            .collect())
    }

    /// The capacity-thrifty lowering: unsigned limb products from the
    /// shared 256-entry `mul4` table, host shift-add, then the host sign
    /// correction `a·b = uₐ·u_b − 2ʷ(negₐ·u_b + neg_b·uₐ) + 2²ʷ·negₐ·neg_b`
    /// (operands are host-known, so the fixup stays PnM-core work).
    fn nibble_products(
        &self,
        m: &mut PlutoMachine,
        wf: &[u64],
        af: &[u64],
    ) -> Result<Vec<i64>, PlutoError> {
        let w = self.width;
        let limbs = GemvPath::limbs(w);
        let mul4 = catalog::mul(4)?;
        let mut unsigned = vec![0i64; wf.len()];
        for la in 0..limbs {
            for lb in 0..limbs {
                let pa: Vec<u64> = wf.iter().map(|&u| (u >> (4 * la)) & 0xF).collect();
                let pb: Vec<u64> = af.iter().map(|&u| (u >> (4 * lb)) & 0xF).collect();
                let partial = m.apply2(&mul4, &pa, 4, &pb, 4)?.values;
                for (acc, &p) in unsigned.iter_mut().zip(&partial) {
                    *acc += (p as i64) << (4 * (la + lb));
                }
            }
        }
        Ok(unsigned
            .iter()
            .zip(wf.iter().zip(af))
            .map(|(&u, (&ua, &ub))| {
                let neg_a = ((ua >> (w - 1)) & 1) as i64;
                let neg_b = ((ub >> (w - 1)) & 1) as i64;
                u - ((neg_a * ub as i64 + neg_b * ua as i64) << w) + ((neg_a & neg_b) << (2 * w))
            })
            .collect())
    }

    fn check_input(&self, x: &[i32]) {
        assert_eq!(x.len(), self.in_features, "activation count");
        let (lo, hi) = (signed_min(self.width), signed_max(self.width));
        assert!(
            x.iter().all(|v| (lo..=hi).contains(v)),
            "activations must fit signed {}-bit operands",
            self.width
        );
    }
}
