//! Owned dense feature vectors.
//!
//! A [`Vector`] is the unit of data flowing through the whole system: the
//! feature extractor produces one per image, the feature database stores
//! them, the IVF index assigns them to inverted lists, and searchers compare
//! them against queries.

use serde::{Deserialize, Serialize};

/// An owned, dense `f32` feature vector.
///
/// The in-memory representation is a plain `Vec<f32>`; the wrapper exists so
/// that vector-level operations (norms, normalization, distance helpers)
/// have an obvious home and so the rest of the system never confuses a
/// feature vector with an arbitrary float buffer.
///
/// # Example
///
/// ```
/// use jdvs_vector::Vector;
///
/// let mut v = Vector::from(vec![3.0, 4.0]);
/// assert_eq!(v.dim(), 2);
/// assert!((v.norm() - 5.0).abs() < 1e-6);
/// v.normalize();
/// assert!((v.norm() - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f32>,
}

impl Vector {
    /// Creates a zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            data: vec![0.0; dim],
        }
    }

    /// Returns the dimensionality.
    pub fn dim(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the components as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the components.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying buffer.
    pub fn into_inner(self) -> Vec<f32> {
        self.data
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Squared Euclidean norm (avoids the square root).
    pub fn squared_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Scales the vector to unit L2 norm. A zero vector is left unchanged
    /// (there is no direction to preserve).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for x in &mut self.data {
                *x /= n;
            }
        }
    }

    /// Returns a unit-norm copy; see [`Vector::normalize`].
    pub fn normalized(&self) -> Self {
        let mut out = self.clone();
        out.normalize();
        out
    }

    /// Adds `other` component-wise.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add_assign(&mut self, other: &Vector) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every component by `s`.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }
}

impl From<Vec<f32>> for Vector {
    fn from(data: Vec<f32>) -> Self {
        Self { data }
    }
}

impl From<&[f32]> for Vector {
    fn from(data: &[f32]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }
}

impl AsRef<[f32]> for Vector {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl FromIterator<f32> for Vector {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f32;

    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_zero_norm() {
        let v = Vector::zeros(16);
        assert_eq!(v.dim(), 16);
        assert_eq!(v.norm(), 0.0);
    }

    #[test]
    fn norm_matches_pythagoras() {
        let v = Vector::from(vec![3.0, 4.0]);
        assert!((v.norm() - 5.0).abs() < 1e-6);
        assert!((v.squared_norm() - 25.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = Vector::zeros(4);
        v.normalize();
        assert_eq!(v.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let v = Vector::from(vec![1.0, 2.0, 3.0]).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Vector::from(vec![1.0, 2.0]);
        a.add_assign(&Vector::from(vec![3.0, 4.0]));
        assert_eq!(a.as_slice(), &[4.0, 6.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_dim_mismatch_panics() {
        let mut a = Vector::from(vec![1.0]);
        a.add_assign(&Vector::from(vec![1.0, 2.0]));
    }

    #[test]
    fn collect_from_iterator() {
        let v: Vector = (0..4).map(|i| i as f32).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn index_access() {
        let v = Vector::from(vec![5.0, 7.0]);
        assert_eq!(v[1], 7.0);
    }
}
