use crate::TensorError;
use std::fmt;

/// Dimensions of a [`Tensor`](crate::Tensor), row-major.
///
/// Feature maps in this workspace use the `CHW` convention
/// (`[channels, height, width]`) and convolution weights use `OIHW`
/// (`[out_channels, in_channels, kernel_h, kernel_w]`), matching Caffe —
/// the framework behind the paper's Caffe.js apps.
///
/// # Example
///
/// ```
/// use snapedge_tensor::Shape;
///
/// # fn main() -> Result<(), snapedge_tensor::TensorError> {
/// let s = Shape::new(&[64, 112, 112])?;
/// assert_eq!(s.volume(), 64 * 112 * 112);
/// assert_eq!(s.rank(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension list.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyShape`] if `dims` is empty or any
    /// dimension is zero.
    pub fn new(dims: &[usize]) -> Result<Shape, TensorError> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(TensorError::EmptyShape);
        }
        Ok(Shape {
            dims: dims.to_vec(),
        })
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of all dimensions).
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Checks that `len` elements fill this shape exactly — the rule every
    /// tensor constructor enforces, for callers validating data they do not
    /// (yet) copy into a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `len` differs from the
    /// volume.
    pub fn check_len(&self, len: usize) -> Result<(), TensorError> {
        if len == self.volume() {
            return Ok(());
        }
        Err(TensorError::LengthMismatch {
            expected: self.volume(),
            actual: len,
        })
    }

    /// Row-major strides: `strides()[i]` is the element distance between
    /// consecutive indices along axis `i`.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flattens a multi-dimensional index into a linear offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when `index` has the wrong
    /// rank or any coordinate exceeds its dimension.
    pub fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.dims.len() || index.iter().zip(&self.dims).any(|(&i, &d)| i >= d) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                dims: self.dims.clone(),
            });
        }
        Ok(index.iter().zip(self.strides()).map(|(&i, s)| i * s).sum())
    }

    /// `true` if this shape describes a `CHW` feature map (rank 3).
    pub fn is_chw(&self) -> bool {
        self.rank() == 3
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl TryFrom<&[usize]> for Shape {
    type Error = TensorError;

    fn try_from(dims: &[usize]) -> Result<Shape, TensorError> {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty() {
        assert_eq!(Shape::new(&[]), Err(TensorError::EmptyShape));
        assert_eq!(Shape::new(&[3, 0, 2]), Err(TensorError::EmptyShape));
    }

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(&[3, 224, 224]).unwrap();
        assert_eq!(s.volume(), 150_528);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn check_len_accepts_exactly_the_volume() {
        let s = Shape::new(&[2, 3]).unwrap();
        assert_eq!(s.check_len(6), Ok(()));
        assert_eq!(
            s.check_len(5),
            Err(TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            })
        );
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]).unwrap();
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_matches_manual_computation() {
        let s = Shape::new(&[2, 3, 4]).unwrap();
        assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 0, 0]).unwrap(), 0);
    }

    #[test]
    fn offset_rejects_bad_index() {
        let s = Shape::new(&[2, 3]).unwrap();
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0]).is_err());
        assert!(s.offset(&[0, 0, 0]).is_err());
    }

    #[test]
    fn display_formats_like_the_paper() {
        let s = Shape::new(&[56, 56, 64]).unwrap();
        assert_eq!(s.to_string(), "(56x56x64)");
    }

    #[test]
    fn scalar_rank_one() {
        let s = Shape::new(&[1]).unwrap();
        assert_eq!(s.volume(), 1);
        assert_eq!(s.strides(), vec![1]);
    }
}
