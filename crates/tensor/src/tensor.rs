use crate::{Shape, TensorError};
use std::fmt;

/// An owned, row-major dense `f32` tensor.
///
/// This is the single numeric container used throughout the workspace: DNN
/// layer parameters, feature maps travelling between client and edge server,
/// and the decoded form of snapshot-embedded typed arrays.
///
/// # Example
///
/// ```
/// use snapedge_tensor::Tensor;
///
/// # fn main() -> Result<(), snapedge_tensor::TensorError> {
/// let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.get(&[1, 0])?, 3.0);
/// assert_eq!(t.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// the shape volume, or [`TensorError::EmptyShape`] for an invalid shape.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims)?;
        shape.check_len(data.len())?;
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor of zeros.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyShape`] for an invalid shape.
    pub fn zeros(dims: &[usize]) -> Result<Tensor, TensorError> {
        Tensor::filled(dims, 0.0)
    }

    /// Creates a tensor where every element is `value`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyShape`] for an invalid shape.
    pub fn filled(dims: &[usize], value: f32) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims)?;
        let data = vec![value; shape.volume()];
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor whose elements are produced by `f(linear_index)`.
    ///
    /// Used by the synthetic executor to generate shape-faithful pseudo
    /// activations without running real arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyShape`] for an invalid shape.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims)?;
        let data = (0..shape.volume()).map(&mut f).collect();
        Ok(Tensor { shape, data })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor has no elements. Always `false` for valid
    /// tensors (shapes cannot be empty), provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Element assignment by multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Reinterprets the tensor with a new shape of identical volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the volumes differ.
    pub fn reshape(self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims)?;
        shape.check_len(self.data.len())?;
        Ok(Tensor {
            shape,
            data: self.data,
        })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Largest element, or `f32::NEG_INFINITY` for (impossible) empty data.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element, or `f32::INFINITY` for (impossible) empty data.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the largest element (ties resolve to the first maximum).
    ///
    /// This is how the example apps turn a softmax output into a label.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Mean squared difference against another tensor — used by the privacy
    /// experiment to score reconstruction attacks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn mse(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        let sum: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        Ok(sum / self.data.len() as f32)
    }

    /// `true` when every element differs from `other` by at most `tol`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> Result<bool, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .all(|(a, b)| (a - b).abs() <= tol))
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [{} elems]", self.shape, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec(&[2, 2], vec![0.0; 4]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]).unwrap();
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.5);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.clone().reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn argmax_first_of_ties() {
        let t = Tensor::from_vec(&[4], vec![1.0, 3.0, 3.0, 2.0]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let t = Tensor::from_fn(&[5], |i| i as f32).unwrap();
        assert_eq!(t.mse(&t).unwrap(), 0.0);
    }

    #[test]
    fn mse_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2]).unwrap();
        let b = Tensor::zeros(&[3]).unwrap();
        assert!(a.mse(&b).is_err());
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor::from_vec(&[3], vec![-1.0, 0.0, 2.0]).unwrap();
        let r = t.map(|x| x.max(0.0));
        assert_eq!(r.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn min_max_sum() {
        let t = Tensor::from_vec(&[4], vec![-2.0, 5.0, 0.5, 1.5]).unwrap();
        assert_eq!(t.max(), 5.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.sum(), 5.0);
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(&[2], vec![1.005, 1.995]).unwrap();
        assert!(a.approx_eq(&b, 0.01).unwrap());
        assert!(!a.approx_eq(&b, 0.001).unwrap());
    }
}
