//! Model persistence: one self-describing binary container holding a
//! [`NetworkSpec`] plus its [`NetworkWeights`].
//!
//! Format (v3):
//!
//! ```text
//! magic "BTFM" | u32 version | u32 header_len | u64 payload_len
//!   | u64 fnv1a64(header ‖ payload) | JSON header | payload
//! ```
//!
//! The header is the spec plus per-layer payload descriptors and the
//! payload is raw little-endian `f32` runs (weights, then γ/β/μ/σ²/ε for
//! parametric layers). Keeps VGG-scale models loadable without a 2×-size
//! JSON blow-up.
//!
//! Version history: v3 appends the batch-norm ε (one `f32`) after each
//! layer's σ² run, fixing the bug where every decoded model silently
//! folded thresholds with the default ε. v2 containers (no ε run) still
//! decode, defaulting ε to [`DEFAULT_BN_EPS`].
//!
//! [`decode_model`] is part of the panic-free serving path: every length
//! field is bound-checked with overflow-safe arithmetic *before* any
//! allocation is sized from it, a FNV-1a-64 checksum rejects bit-level
//! corruption anywhere in the header or payload, and the decoded
//! spec/weights pair is validated (shape inference + spec/weight
//! agreement) before being returned — so a successfully decoded model is
//! always safe to hand to
//! [`CompiledModel::try_compile`](crate::engine::CompiledModel::try_compile).

use crate::spec::NetworkSpec;
use crate::weights::{BnParams, LayerWeights, NetworkWeights, DEFAULT_BN_EPS};
use bitflow_tensor::FilterShape;
use serde::{Deserialize, Serialize};

/// Container magic: "BTFM" (BitFlow model).
pub const MODEL_MAGIC: u32 = 0x4254_464D;

/// Container format version written by [`encode_model`].
pub const MODEL_VERSION: u32 = 3;

/// Oldest container version [`decode_model`] still accepts (v2 payloads
/// carry no ε run; decode defaults it to [`DEFAULT_BN_EPS`]).
pub const MIN_MODEL_VERSION: u32 = 2;

/// Fixed prefix: magic + version + header_len + payload_len + checksum.
const PREFIX_LEN: usize = 4 + 4 + 4 + 8 + 8;

/// Errors from decoding a model container.
#[derive(Debug)]
pub enum ModelIoError {
    /// Bad magic number.
    BadMagic,
    /// Header did not parse.
    BadHeader(String),
    /// Payload shorter than the header promises.
    Truncated,
    /// Integrity failure: checksum mismatch, trailing bytes, or a length
    /// field that cannot describe a real buffer.
    Corrupt(String),
    /// The container decoded, but the spec/weights it carries are not a
    /// servable model (failed validation).
    Invalid(String),
    /// Underlying I/O error.
    Io(std::io::Error),
    /// A fallible allocation sized by the (untrusted) container failed:
    /// the allocator refused the bytes, reported as an error value
    /// instead of an abort.
    ResourceExhausted {
        /// What was being allocated.
        what: &'static str,
        /// Bytes the failed reservation asked for.
        bytes: u64,
    },
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::BadMagic => write!(f, "bad magic (not a BitFlow model)"),
            ModelIoError::BadHeader(e) => write!(f, "malformed model header: {e}"),
            ModelIoError::Truncated => write!(f, "model payload truncated"),
            ModelIoError::Corrupt(e) => write!(f, "model container corrupt: {e}"),
            ModelIoError::Invalid(e) => write!(f, "model failed validation: {e}"),
            ModelIoError::Io(e) => write!(f, "i/o error: {e}"),
            ModelIoError::ResourceExhausted { what, bytes } => {
                write!(f, "allocation failed: {bytes} bytes for {what}")
            }
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

/// Per-layer payload descriptor (element counts of each f32 run).
#[derive(Clone, Debug, Serialize, Deserialize)]
enum LayerDesc {
    Conv { fshape: FilterShape, bn_c: usize },
    Fc { n: usize, k: usize, bn_c: usize },
    Pool,
}

#[derive(Serialize, Deserialize)]
struct Header {
    spec: NetworkSpec,
    layers: Vec<LayerDesc>,
}

/// FNV-1a 64-bit hash — the container's integrity check. Not
/// cryptographic; it exists to turn accidental corruption (bit rot,
/// truncated writes, bad transfers) into a typed decode error instead of
/// garbage weights.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn read_f32s(data: &[u8], off: &mut usize, n: usize) -> Result<Vec<f32>, ModelIoError> {
    let need = n
        .checked_mul(4)
        .ok_or_else(|| ModelIoError::Corrupt(format!("element count {n} overflows")))?;
    let end = off
        .checked_add(need)
        .ok_or_else(|| ModelIoError::Corrupt("payload offset overflows".into()))?;
    if end > data.len() {
        return Err(ModelIoError::Truncated);
    }
    // Fallible reservation: `n` comes from the container, and even a
    // bounds-checked count can exceed what the allocator will grant.
    let mut out: Vec<f32> = Vec::new();
    out.try_reserve_exact(n)
        .map_err(|_| ModelIoError::ResourceExhausted {
            what: "model payload",
            bytes: need as u64,
        })?;
    out.extend(
        data[*off..end]
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
    );
    *off = end;
    Ok(out)
}

/// Element count a descriptor promises, with overflow-checked arithmetic
/// (descriptors come straight from an untrusted header). v3 payloads carry
/// one extra ε element per batch-norm run.
fn desc_elems(desc: &LayerDesc, version: u32) -> Result<usize, ModelIoError> {
    let over = || ModelIoError::Corrupt("layer descriptor size overflows".into());
    let eps_elems = if version >= 3 { 1 } else { 0 };
    let checked_bn = |bn_c: usize| {
        bn_c.checked_mul(4)
            .and_then(|x| x.checked_add(eps_elems))
            .ok_or_else(over)
    };
    match desc {
        LayerDesc::Conv { fshape, bn_c } => {
            let w = fshape
                .k
                .checked_mul(fshape.kh)
                .and_then(|x| x.checked_mul(fshape.kw))
                .and_then(|x| x.checked_mul(fshape.c))
                .ok_or_else(over)?;
            w.checked_add(checked_bn(*bn_c)?).ok_or_else(over)
        }
        LayerDesc::Fc { n, k, bn_c } => {
            let w = n.checked_mul(*k).ok_or_else(over)?;
            w.checked_add(checked_bn(*bn_c)?).ok_or_else(over)
        }
        LayerDesc::Pool => Ok(0),
    }
}

/// Serializes a model to bytes.
///
/// # Panics
/// If `spec` and `weights` disagree on layer count.
pub fn encode_model(spec: &NetworkSpec, weights: &NetworkWeights) -> Vec<u8> {
    assert_eq!(spec.layers.len(), weights.layers.len(), "spec/weights");
    let descs: Vec<LayerDesc> = weights
        .layers
        .iter()
        .map(|lw| match lw {
            LayerWeights::Conv { fshape, bn, .. } => LayerDesc::Conv {
                fshape: *fshape,
                bn_c: bn.gamma.len(),
            },
            LayerWeights::Fc { n, k, bn, .. } => LayerDesc::Fc {
                n: *n,
                k: *k,
                bn_c: bn.gamma.len(),
            },
            LayerWeights::Pool => LayerDesc::Pool,
        })
        .collect();
    let header = Header {
        spec: spec.clone(),
        layers: descs,
    };
    let header_json = match serde_json::to_vec(&header) {
        Ok(j) => j,
        // Header is a closed set of plain data types; serialization cannot
        // fail short of a serde-shim bug.
        Err(e) => unreachable!("header serialization failed: {e}"),
    };
    let mut body = Vec::with_capacity(header_json.len() + weights.float_bytes());
    body.extend_from_slice(&header_json);
    for lw in &weights.layers {
        match lw {
            LayerWeights::Conv { w, bn, .. } | LayerWeights::Fc { w, bn, .. } => {
                push_f32s(&mut body, w);
                push_f32s(&mut body, &bn.gamma);
                push_f32s(&mut body, &bn.beta);
                push_f32s(&mut body, &bn.mean);
                push_f32s(&mut body, &bn.var);
                push_f32s(&mut body, &[bn.eps]);
            }
            LayerWeights::Pool => {}
        }
    }
    let payload_len = (body.len() - header_json.len()) as u64;
    let mut buf = Vec::with_capacity(PREFIX_LEN + body.len());
    buf.extend_from_slice(&MODEL_MAGIC.to_le_bytes());
    buf.extend_from_slice(&MODEL_VERSION.to_le_bytes());
    buf.extend_from_slice(&(header_json.len() as u32).to_le_bytes());
    buf.extend_from_slice(&payload_len.to_le_bytes());
    buf.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    buf.extend_from_slice(&body);
    buf
}

/// Deserializes a model from bytes.
///
/// Never panics and never sizes an allocation from an unchecked length
/// field: any corruption — truncation, bit flips (caught by the
/// checksum), inflated length fields, or a decoded model that fails
/// validation — comes back as a typed [`ModelIoError`].
pub fn decode_model(data: &[u8]) -> Result<(NetworkSpec, NetworkWeights), ModelIoError> {
    if data.len() < 4 || data[..4] != MODEL_MAGIC.to_le_bytes() {
        return Err(ModelIoError::BadMagic);
    }
    if data.len() < PREFIX_LEN {
        return Err(ModelIoError::Truncated);
    }
    let version = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
    if !(MIN_MODEL_VERSION..=MODEL_VERSION).contains(&version) {
        return Err(ModelIoError::BadHeader(format!(
            "unsupported container version {version} \
             (expected {MIN_MODEL_VERSION}..={MODEL_VERSION})"
        )));
    }
    let hlen = u32::from_le_bytes([data[8], data[9], data[10], data[11]]) as usize;
    let plen = u64::from_le_bytes([
        data[12], data[13], data[14], data[15], data[16], data[17], data[18], data[19],
    ]);
    let checksum = u64::from_le_bytes([
        data[20], data[21], data[22], data[23], data[24], data[25], data[26], data[27],
    ]);
    // Bound-check the promised total size before touching the body. On a
    // 32-bit target a u64 payload_len may not even fit in usize.
    let plen = usize::try_from(plen)
        .map_err(|_| ModelIoError::Corrupt("payload length exceeds address space".into()))?;
    let body_len = hlen
        .checked_add(plen)
        .ok_or_else(|| ModelIoError::Corrupt("container size overflows".into()))?;
    let total = PREFIX_LEN
        .checked_add(body_len)
        .ok_or_else(|| ModelIoError::Corrupt("container size overflows".into()))?;
    if data.len() < total {
        return Err(ModelIoError::Truncated);
    }
    if data.len() > total {
        return Err(ModelIoError::Corrupt(format!(
            "{} trailing bytes after payload",
            data.len() - total
        )));
    }
    let body = &data[PREFIX_LEN..];
    let actual = fnv1a64(body);
    if actual != checksum {
        return Err(ModelIoError::Corrupt(format!(
            "checksum mismatch (stored {checksum:#018x}, computed {actual:#018x})"
        )));
    }
    let header: Header = serde_json::from_slice(&body[..hlen])
        .map_err(|e| ModelIoError::BadHeader(e.to_string()))?;
    // Cross-check the descriptors against the payload length before
    // allocating anything sized by them.
    let mut promised = 0usize;
    for desc in &header.layers {
        promised = promised
            .checked_add(desc_elems(desc, version)?)
            .ok_or_else(|| ModelIoError::Corrupt("layer descriptor size overflows".into()))?;
    }
    let promised_bytes = promised
        .checked_mul(4)
        .ok_or_else(|| ModelIoError::Corrupt("layer descriptor size overflows".into()))?;
    if promised_bytes > plen {
        return Err(ModelIoError::Truncated);
    }
    if promised_bytes < plen {
        return Err(ModelIoError::Corrupt(format!(
            "payload is {plen} bytes but descriptors account for {promised_bytes}"
        )));
    }
    let payload = &body[hlen..];
    let mut off = 0usize;
    let mut layers = Vec::new();
    layers
        .try_reserve_exact(header.layers.len())
        .map_err(|_| ModelIoError::ResourceExhausted {
            what: "layer table",
            bytes: (header.layers.len() as u64)
                .saturating_mul(std::mem::size_of::<LayerWeights>() as u64),
        })?;
    for desc in &header.layers {
        let lw = match desc {
            LayerDesc::Conv { fshape, bn_c } => {
                let w = read_f32s(payload, &mut off, fshape.numel())?;
                let bn = read_bn(payload, &mut off, *bn_c, version)?;
                LayerWeights::Conv {
                    w,
                    fshape: *fshape,
                    bn,
                }
            }
            LayerDesc::Fc { n, k, bn_c } => {
                let w = read_f32s(payload, &mut off, n * k)?;
                let bn = read_bn(payload, &mut off, *bn_c, version)?;
                LayerWeights::Fc {
                    w,
                    n: *n,
                    k: *k,
                    bn,
                }
            }
            LayerDesc::Pool => LayerWeights::Pool,
        };
        layers.push(lw);
    }
    let weights = NetworkWeights { layers };
    // A decoded model must be servable: full shape inference plus
    // spec/weight agreement, so downstream try_compile cannot fault.
    let shapes = header
        .spec
        .validate()
        .map_err(|e| ModelIoError::Invalid(e.to_string()))?;
    weights
        .validate_against(&header.spec, &shapes)
        .map_err(|e| ModelIoError::Invalid(e.to_string()))?;
    Ok((header.spec, weights))
}

fn read_bn(data: &[u8], off: &mut usize, c: usize, version: u32) -> Result<BnParams, ModelIoError> {
    let gamma = read_f32s(data, off, c)?;
    let beta = read_f32s(data, off, c)?;
    let mean = read_f32s(data, off, c)?;
    let var = read_f32s(data, off, c)?;
    // v2 containers predate the ε run; they were folded with the default.
    let eps = if version >= 3 {
        read_f32s(data, off, 1)?[0]
    } else {
        DEFAULT_BN_EPS
    };
    Ok(BnParams {
        gamma,
        beta,
        mean,
        var,
        eps,
    })
}

/// Saves a model to a file.
pub fn save_model(
    path: impl AsRef<std::path::Path>,
    spec: &NetworkSpec,
    weights: &NetworkWeights,
) -> Result<(), ModelIoError> {
    std::fs::write(path, encode_model(spec, weights))?;
    Ok(())
}

/// Loads a model from a file.
pub fn load_model(
    path: impl AsRef<std::path::Path>,
) -> Result<(NetworkSpec, NetworkWeights), ModelIoError> {
    decode_model(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::models::{small_cnn, tiered_cnn};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn round_trip_in_memory() {
        let spec = tiered_cnn();
        let mut rng = StdRng::seed_from_u64(8);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let bytes = encode_model(&spec, &weights);
        let (spec2, weights2) = decode_model(&bytes).unwrap();
        assert_eq!(spec, spec2);
        assert_eq!(weights, weights2);
    }

    #[test]
    fn round_trip_through_file_and_engine() {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(9);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let dir = std::env::temp_dir().join("bitflow-model-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.btfm");
        save_model(&path, &spec, &weights).unwrap();
        let (spec2, weights2) = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Same logits from both engines.
        use bitflow_tensor::{Layout, Tensor};
        let img = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let logits = |spec, weights| {
            let model = crate::engine::CompiledModel::try_compile(spec, weights).unwrap();
            model.try_infer(&mut model.try_new_context().unwrap(), &img)
        };
        assert_eq!(
            logits(&spec, &weights).unwrap(),
            logits(&spec2, &weights2).unwrap()
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(10);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let mut bytes = encode_model(&spec, &weights);
        bytes[0] ^= 0xFF;
        assert!(matches!(decode_model(&bytes), Err(ModelIoError::BadMagic)));
    }

    #[test]
    fn rejects_truncated_payload() {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(11);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let bytes = encode_model(&spec, &weights);
        let cut = &bytes[..bytes.len() - 100];
        assert!(matches!(decode_model(cut), Err(ModelIoError::Truncated)));
    }

    #[test]
    fn rejects_payload_bit_flip_via_checksum() {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(13);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let mut bytes = encode_model(&spec, &weights);
        // Flip one bit deep in the f32 payload — without the checksum this
        // would decode "successfully" into silently-wrong weights.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_model(&bytes),
            Err(ModelIoError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(14);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let mut bytes = encode_model(&spec, &weights);
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            decode_model(&bytes),
            Err(ModelIoError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_unsupported_version() {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(15);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let mut bytes = encode_model(&spec, &weights);
        for bad in [1u32, 99] {
            let mut b = bytes.clone();
            b[4..8].copy_from_slice(&bad.to_le_bytes());
            assert!(
                matches!(decode_model(&b), Err(ModelIoError::BadHeader(_))),
                "version {bad} must be rejected"
            );
        }
        bytes[4..8].copy_from_slice(&MODEL_VERSION.to_le_bytes());
        assert!(decode_model(&bytes).is_ok());
    }

    /// Re-encodes a model in the legacy v2 layout (no ε run) so the
    /// backward-compat decode path can be exercised against real bytes.
    fn encode_model_v2(spec: &NetworkSpec, weights: &NetworkWeights) -> Vec<u8> {
        let descs: Vec<LayerDesc> = weights
            .layers
            .iter()
            .map(|lw| match lw {
                LayerWeights::Conv { fshape, bn, .. } => LayerDesc::Conv {
                    fshape: *fshape,
                    bn_c: bn.gamma.len(),
                },
                LayerWeights::Fc { n, k, bn, .. } => LayerDesc::Fc {
                    n: *n,
                    k: *k,
                    bn_c: bn.gamma.len(),
                },
                LayerWeights::Pool => LayerDesc::Pool,
            })
            .collect();
        let header = Header {
            spec: spec.clone(),
            layers: descs,
        };
        let header_json = serde_json::to_vec(&header).unwrap();
        let mut body = header_json.clone();
        for lw in &weights.layers {
            match lw {
                LayerWeights::Conv { w, bn, .. } | LayerWeights::Fc { w, bn, .. } => {
                    push_f32s(&mut body, w);
                    push_f32s(&mut body, &bn.gamma);
                    push_f32s(&mut body, &bn.beta);
                    push_f32s(&mut body, &bn.mean);
                    push_f32s(&mut body, &bn.var);
                }
                LayerWeights::Pool => {}
            }
        }
        let payload_len = (body.len() - header_json.len()) as u64;
        let mut buf = Vec::with_capacity(PREFIX_LEN + body.len());
        buf.extend_from_slice(&MODEL_MAGIC.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&(header_json.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload_len.to_le_bytes());
        buf.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        buf.extend_from_slice(&body);
        buf
    }

    #[test]
    fn decodes_legacy_v2_container_with_default_eps() {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(16);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let bytes = encode_model_v2(&spec, &weights);
        let (spec2, weights2) = decode_model(&bytes).unwrap();
        assert_eq!(spec, spec2);
        // A v2 payload has no ε run: every layer comes back with the
        // default, and everything else survives byte-exactly.
        for (a, b) in weights.layers.iter().zip(&weights2.layers) {
            match (a, b) {
                (LayerWeights::Conv { w, bn, .. }, LayerWeights::Conv { w: w2, bn: bn2, .. })
                | (LayerWeights::Fc { w, bn, .. }, LayerWeights::Fc { w: w2, bn: bn2, .. }) => {
                    assert_eq!(w, w2);
                    assert_eq!(bn.gamma, bn2.gamma);
                    assert_eq!(bn.beta, bn2.beta);
                    assert_eq!(bn.mean, bn2.mean);
                    assert_eq!(bn.var, bn2.var);
                    assert_eq!(bn2.eps, DEFAULT_BN_EPS);
                }
                (LayerWeights::Pool, LayerWeights::Pool) => {}
                _ => panic!("layer kinds diverged"),
            }
        }
    }

    /// Property-style round-trip sweep: across many random models with
    /// randomized per-layer ε, encode→decode is the identity, and the v2
    /// re-encoding of the same model decodes with ε collapsed to the
    /// default — covering both the new field and old-version decode.
    #[test]
    fn round_trip_property_covers_eps_and_legacy_decode() {
        for seed in 0..16u64 {
            let spec = if seed % 2 == 0 {
                small_cnn()
            } else {
                tiered_cnn()
            };
            let mut rng = StdRng::seed_from_u64(0xE9_5000 + seed);
            let mut weights = NetworkWeights::random_with_bn(&spec, &mut rng);
            for lw in &mut weights.layers {
                if let LayerWeights::Conv { bn, .. } | LayerWeights::Fc { bn, .. } = lw {
                    bn.eps = rng.gen_range(1e-6f32..1e-2);
                }
            }
            let (spec2, weights2) = decode_model(&encode_model(&spec, &weights)).unwrap();
            assert_eq!(spec, spec2, "seed {seed}: spec round-trip");
            assert_eq!(
                weights, weights2,
                "seed {seed}: weights (incl. ε) round-trip"
            );

            let (_, legacy) = decode_model(&encode_model_v2(&spec, &weights)).unwrap();
            for lw in &legacy.layers {
                if let LayerWeights::Conv { bn, .. } | LayerWeights::Fc { bn, .. } = lw {
                    assert_eq!(bn.eps, DEFAULT_BN_EPS, "seed {seed}: legacy ε default");
                }
            }
        }
    }

    #[test]
    fn payload_is_compact() {
        // Container overhead must be tiny relative to raw weights.
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(12);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let bytes = encode_model(&spec, &weights);
        let raw = weights.float_bytes();
        assert!(
            bytes.len() < raw + raw / 10 + 4096,
            "{} vs {}",
            bytes.len(),
            raw
        );
    }
}
