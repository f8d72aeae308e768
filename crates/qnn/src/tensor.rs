//! A minimal integer tensor for quantized inference.

use std::fmt;

/// A dense row-major `i32` tensor.
#[derive(Clone, PartialEq, Eq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<i32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}[{} values]", self.shape, self.data.len())
    }
}

impl Tensor {
    /// Zero tensor of the given shape.
    ///
    /// # Panics
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(
            !shape.is_empty() && shape.iter().all(|&d| d > 0),
            "bad shape {shape:?}"
        );
        Tensor {
            shape: shape.to_vec(),
            data: vec![0; shape.iter().product()],
        }
    }

    /// Builds a tensor from raw data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<i32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "shape/data mismatch"
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable data access.
    pub fn data(&self) -> &[i32] {
        &self.data
    }

    /// 3-D indexed read for `[c, h, w]` tensors.
    ///
    /// # Panics
    /// Panics if the tensor is not 3-D or the index is out of bounds.
    pub fn at3(&self, c: usize, h: usize, w: usize) -> i32 {
        assert_eq!(self.shape.len(), 3);
        let (_, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        self.data[c * hh * ww + h * ww + w]
    }

    /// 3-D indexed write for `[c, h, w]` tensors.
    ///
    /// # Panics
    /// Panics if the tensor is not 3-D or the index is out of bounds.
    pub fn set3(&mut self, c: usize, h: usize, w: usize, v: i32) {
        assert_eq!(self.shape.len(), 3);
        let (_, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        self.data[c * hh * ww + h * ww + w] = v;
    }

    /// Index of the maximum element (first on ties).
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_from_vec() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&v| v == 0));
        let t = Tensor::from_vec(&[2, 2], vec![1, 2, 3, 4]);
        assert_eq!(t.shape(), &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_validates() {
        let _ = Tensor::from_vec(&[2, 2], vec![1]);
    }

    #[test]
    fn indexing_3d() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set3(1, 2, 3, 42);
        assert_eq!(t.at3(1, 2, 3), 42);
        assert_eq!(t.at3(0, 0, 0), 0);
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::from_vec(&[4], vec![1, 9, 9, 3]);
        assert_eq!(t.argmax(), 1);
    }
}
