//! A small self-describing binary format for parameter checkpoints.
//!
//! Layout (little-endian): magic `MZW1`, u32 matrix count, then per
//! matrix u32 rows, u32 cols, and `rows*cols` f32 values.

use crate::Params;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

const MAGIC: &[u8; 4] = b"MZW1";

/// Errors from checkpoint loading.
#[derive(Debug)]
pub enum WeightFormatError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Truncated or oversized payload.
    Truncated,
    /// Checkpoint shape does not match the parameter store.
    ShapeMismatch { index: usize },
}

impl fmt::Display for WeightFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightFormatError::BadMagic => write!(f, "not a MapZero weight file"),
            WeightFormatError::Truncated => write!(f, "weight file truncated"),
            WeightFormatError::ShapeMismatch { index } => {
                write!(f, "parameter {index} has mismatched shape")
            }
        }
    }
}

impl std::error::Error for WeightFormatError {}

/// Serialize all parameters into bytes.
#[must_use]
pub fn encode_params(params: &Params) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(params.len() as u32);
    for id in params.ids() {
        let m = params.value(id);
        buf.put_u32_le(m.rows() as u32);
        buf.put_u32_le(m.cols() as u32);
        for &v in m.data() {
            buf.put_f32_le(v);
        }
    }
    buf.freeze()
}

/// Restore parameter values from bytes; the store must already contain
/// parameters of exactly the recorded shapes (create the network first,
/// then load).
///
/// # Errors
/// Returns a [`WeightFormatError`] on malformed input or shape mismatch.
pub fn decode_params(params: &mut Params, mut bytes: Bytes) -> Result<(), WeightFormatError> {
    if bytes.remaining() < 8 {
        return Err(WeightFormatError::Truncated);
    }
    let mut magic = [0u8; 4];
    bytes.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(WeightFormatError::BadMagic);
    }
    let count = bytes.get_u32_le() as usize;
    if count != params.len() {
        return Err(WeightFormatError::ShapeMismatch { index: 0 });
    }
    for (index, id) in params.ids().collect::<Vec<_>>().into_iter().enumerate() {
        if bytes.remaining() < 8 {
            return Err(WeightFormatError::Truncated);
        }
        let rows = bytes.get_u32_le() as usize;
        let cols = bytes.get_u32_le() as usize;
        {
            let m = params.value(id);
            if (m.rows(), m.cols()) != (rows, cols) {
                return Err(WeightFormatError::ShapeMismatch { index });
            }
        }
        if bytes.remaining() < rows * cols * 4 {
            return Err(WeightFormatError::Truncated);
        }
        let target = params.value_mut(id);
        for v in target.data_mut() {
            *v = bytes.get_f32_le();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, SeedRng};

    fn sample_params() -> Params {
        let mut p = Params::new();
        let mut rng = SeedRng::new(17);
        p.register(rng.xavier(3, 4));
        p.register(rng.uniform(1, 4, 0.5));
        p
    }

    #[test]
    fn round_trip_in_memory() {
        let src = sample_params();
        let bytes = encode_params(&src);
        let mut dst = sample_params();
        // Perturb dst so the copy is observable.
        dst.value_mut(dst.ids().next().unwrap()).fill(9.0);
        decode_params(&mut dst, bytes).unwrap();
        for (a, b) in src.ids().zip(dst.ids()) {
            assert_eq!(src.value(a), dst.value(b));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut dst = sample_params();
        let err = decode_params(&mut dst, Bytes::from_static(b"NOPE\0\0\0\0")).unwrap_err();
        assert!(matches!(err, WeightFormatError::BadMagic));
    }

    #[test]
    fn truncated_rejected() {
        let src = sample_params();
        let bytes = encode_params(&src);
        let cut = bytes.slice(0..bytes.len() - 5);
        let mut dst = sample_params();
        assert!(matches!(
            decode_params(&mut dst, cut),
            Err(WeightFormatError::Truncated)
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let src = sample_params();
        let bytes = encode_params(&src);
        let mut dst = Params::new();
        dst.register(Matrix::zeros(2, 2));
        assert!(matches!(
            decode_params(&mut dst, bytes),
            Err(WeightFormatError::ShapeMismatch { .. })
        ));
    }
}
