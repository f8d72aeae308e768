//! Image binarization and color grading (paper Table 4: 3-channel 8-bit
//! images of 936 000 pixels; binarization threshold 50 %, 8-bit → 8-bit
//! grading).
//!
//! Both are pure per-pixel 8-bit → 8-bit maps — the paper's canonical
//! "nonlinear operation that prior PuM cannot express" — and compile to a
//! single 256-entry LUT query per channel batch.

use crate::gen::Image;
use pluto_core::lut::catalog;
use pluto_core::{Lut, PlutoError, PlutoMachine};

/// Reference binarization: every channel thresholded at `threshold`
/// (paper: 50 % ⇒ 128).
pub fn binarize_reference(img: &Image, threshold: u8) -> Image {
    Image {
        pixels: img.pixels,
        channels: [0, 1, 2].map(|c| {
            img.channels[c]
                .iter()
                .map(|&p| if p >= threshold { 255 } else { 0 })
                .collect()
        }),
    }
}

/// A per-channel color-grading curve set (8-bit → 8-bit LUTs, the paper's
/// Final-Cut-style "color grading via LUT" workload).
#[derive(Debug, Clone)]
pub struct GradingCurves {
    /// One 256-entry curve per channel.
    pub curves: [Vec<u8>; 3],
}

impl GradingCurves {
    /// A cinematic-style deterministic grade: lifted shadows + warm gamma
    /// on R, neutral G, cooled highlights on B.
    pub fn cinematic() -> Self {
        let curve = |lift: f64, gamma: f64, gain: f64| -> Vec<u8> {
            (0..256)
                .map(|v| {
                    let x = v as f64 / 255.0;
                    let y = ((x + lift).max(0.0).powf(gamma) * gain).clamp(0.0, 1.0);
                    (y * 255.0).round() as u8
                })
                .collect()
        };
        GradingCurves {
            curves: [
                curve(0.02, 0.9, 1.05),
                curve(0.0, 1.0, 1.0),
                curve(-0.01, 1.1, 0.98),
            ],
        }
    }

    /// Applies the curves in software (reference).
    pub fn apply_reference(&self, img: &Image) -> Image {
        Image {
            pixels: img.pixels,
            channels: [0, 1, 2].map(|c| {
                img.channels[c]
                    .iter()
                    .map(|&p| self.curves[c][p as usize])
                    .collect()
            }),
        }
    }
}

/// pLUTo binarization: one 256-entry LUT query stream per channel.
///
/// # Errors
/// Propagates machine errors.
pub fn binarize_pluto(
    machine: &mut PlutoMachine,
    img: &Image,
    threshold: u8,
) -> Result<Image, PlutoError> {
    let lut = catalog::binarize(threshold)?;
    let mut channels: [Vec<u8>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (chan, src) in channels.iter_mut().zip(&img.channels) {
        let vals: Vec<u64> = src.iter().map(|&p| p as u64).collect();
        *chan = machine
            .apply(&lut, &vals)?
            .values
            .into_iter()
            .map(|v| v as u8)
            .collect();
    }
    Ok(Image {
        pixels: img.pixels,
        channels,
    })
}

/// pLUTo color grading: one per-channel curve LUT query stream.
///
/// # Errors
/// Propagates machine errors.
pub fn grade_pluto(
    machine: &mut PlutoMachine,
    img: &Image,
    curves: &GradingCurves,
) -> Result<Image, PlutoError> {
    let mut channels: [Vec<u8>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (c, chan) in channels.iter_mut().enumerate() {
        let lut = Lut::from_table(
            format!("grade_ch{c}"),
            8,
            8,
            curves.curves[c].iter().map(|&v| v as u64).collect(),
        )?;
        let vals: Vec<u64> = img.channels[c].iter().map(|&p| p as u64).collect();
        *chan = machine
            .apply(&lut, &vals)?
            .values
            .into_iter()
            .map(|v| v as u8)
            .collect();
    }
    Ok(Image {
        pixels: img.pixels,
        channels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pluto_core::DesignKind;
    use pluto_dram::DramConfig;

    fn machine() -> PlutoMachine {
        PlutoMachine::new(
            DramConfig {
                row_bytes: 256,
                burst_bytes: 32,
                banks: 2,
                subarrays_per_bank: 16,
                rows_per_subarray: 512,
                ..DramConfig::ddr4_2400()
            },
            DesignKind::Bsa,
        )
        .unwrap()
    }

    #[test]
    fn binarize_reference_thresholds() {
        let img = Image::synthetic(3, 500);
        let bin = binarize_reference(&img, 128);
        for c in 0..3 {
            for (i, &p) in bin.channels[c].iter().enumerate() {
                assert_eq!(p, if img.channels[c][i] >= 128 { 255 } else { 0 });
            }
        }
    }

    #[test]
    fn pluto_binarization_matches_reference() {
        let img = Image::synthetic(9, 700);
        let mut m = machine();
        let out = binarize_pluto(&mut m, &img, 128).unwrap();
        assert_eq!(out, binarize_reference(&img, 128));
    }

    #[test]
    fn pluto_grading_matches_reference() {
        let img = Image::synthetic(10, 600);
        let curves = GradingCurves::cinematic();
        let mut m = machine();
        let out = grade_pluto(&mut m, &img, &curves).unwrap();
        assert_eq!(out, curves.apply_reference(&img));
    }

    #[test]
    fn grading_curves_are_monotone_enough() {
        // Sanity on the synthetic curves: end points ordered.
        let c = GradingCurves::cinematic();
        for ch in &c.curves {
            assert!(ch[255] > ch[0]);
            assert_eq!(ch.len(), 256);
        }
    }

    #[test]
    fn binarize_extreme_thresholds() {
        let img = Image::synthetic(4, 100);
        let all_white = binarize_reference(&img, 0);
        assert!(all_white.channels[0].iter().all(|&p| p == 255));
        let mut m = machine();
        let out = binarize_pluto(&mut m, &img, 0).unwrap();
        assert_eq!(out, all_white);
    }
}

// --- Pluggable scenarios ------------------------------------------------

use pluto_baselines::WorkloadId;
use pluto_core::session::{Session, Workload};

fn encode_image(img: &Image) -> Vec<u8> {
    img.channels
        .iter()
        .flat_map(|c| c.iter().copied())
        .collect()
}

/// Splits an image into measurement-tile-sized sub-images (all three
/// channel planes cut at the same pixel boundaries) for cluster shard
/// fan-out.
fn image_tiles(img: &Image) -> Vec<Image> {
    let chunk = crate::MEASURE_BATCH_ELEMS;
    (0..img.pixels)
        .step_by(chunk.max(1))
        .map(|start| {
            let end = (start + chunk).min(img.pixels);
            Image {
                pixels: end - start,
                channels: [0, 1, 2].map(|c| img.channels[c][start..end].to_vec()),
            }
        })
        .collect()
}

/// The image binarization workload (Table 4) as a pluggable [`Workload`]
/// scenario: a 3-channel synthetic image at the paper's 50% threshold,
/// one measurement tile by default.
#[derive(Debug)]
pub struct BinarizeWorkload {
    img: Image,
    threshold: u8,
}

impl BinarizeWorkload {
    /// A scenario over the fixed-seed synthetic tile.
    pub fn new() -> Self {
        BinarizeWorkload::with_pixels(crate::MEASURE_BATCH_ELEMS)
    }

    /// A scenario over a `pixels`-pixel synthetic image; images larger
    /// than one measurement tile split into per-tile
    /// [`Workload::shards`].
    pub fn with_pixels(pixels: usize) -> Self {
        BinarizeWorkload {
            img: Image::synthetic(5, pixels),
            threshold: 128,
        }
    }
}

impl Default for BinarizeWorkload {
    fn default() -> Self {
        BinarizeWorkload::new()
    }
}

impl Workload for BinarizeWorkload {
    fn id(&self) -> &'static str {
        WorkloadId::ImgBin.label()
    }

    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let out = binarize_pluto(sess.machine_mut(), &self.img, self.threshold)?;
        Ok(encode_image(&out))
    }

    fn run_reference(&self) -> Vec<u8> {
        encode_image(&binarize_reference(&self.img, self.threshold))
    }

    fn input_bytes(&self) -> f64 {
        (3 * self.img.pixels) as f64
    }

    fn shards(&self) -> Vec<Box<dyn Workload>> {
        image_tiles(&self.img)
            .into_iter()
            .map(|tile| {
                Box::new(BinarizeWorkload {
                    img: tile,
                    threshold: self.threshold,
                }) as Box<dyn Workload>
            })
            .collect()
    }
}

/// The color-grading workload (Table 4) as a pluggable [`Workload`]
/// scenario: the cinematic curve set over a 3-channel synthetic image,
/// one measurement tile by default.
#[derive(Debug)]
pub struct GradeWorkload {
    img: Image,
    curves: GradingCurves,
}

impl GradeWorkload {
    /// A scenario over the fixed-seed synthetic tile.
    pub fn new() -> Self {
        GradeWorkload::with_pixels(crate::MEASURE_BATCH_ELEMS)
    }

    /// A scenario over a `pixels`-pixel synthetic image; images larger
    /// than one measurement tile split into per-tile
    /// [`Workload::shards`].
    pub fn with_pixels(pixels: usize) -> Self {
        GradeWorkload {
            img: Image::synthetic(6, pixels),
            curves: GradingCurves::cinematic(),
        }
    }
}

impl Default for GradeWorkload {
    fn default() -> Self {
        GradeWorkload::new()
    }
}

impl Workload for GradeWorkload {
    fn id(&self) -> &'static str {
        WorkloadId::ColorGrade.label()
    }

    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let out = grade_pluto(sess.machine_mut(), &self.img, &self.curves)?;
        Ok(encode_image(&out))
    }

    fn run_reference(&self) -> Vec<u8> {
        encode_image(&self.curves.apply_reference(&self.img))
    }

    fn input_bytes(&self) -> f64 {
        (3 * self.img.pixels) as f64
    }

    fn shards(&self) -> Vec<Box<dyn Workload>> {
        image_tiles(&self.img)
            .into_iter()
            .map(|tile| {
                Box::new(GradeWorkload {
                    img: tile,
                    curves: self.curves.clone(),
                }) as Box<dyn Workload>
            })
            .collect()
    }
}
