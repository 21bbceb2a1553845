//! Output checking: every response on every path is compared with a pinned
//! FNV-1a-64 checksum of the logits that this commit's engine produced for
//! the same (model, data seed, input).
//!
//! `--seed` selects one of [`DATA_SEEDS`] weight-and-input sets (and, in
//! full, the request order), so every seed the benchmark can be given has
//! pins and no run falls back to comparing the program with itself.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

/// Number of pinned weight-and-input sets; `--seed n` uses set `n % 8`.
pub const DATA_SEEDS: u64 = 8;

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checksum of logits as the wire carries them (little-endian `f32`s), so
/// an HTTP body and an in-process `Vec<f32>` hash alike.
pub fn logits_checksum(logits: &[f32]) -> u64 {
    let mut bytes = Vec::with_capacity(logits.len() * 4);
    for x in logits {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The pinned checksums: model key → data seed → one checksum per input.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Golden(BTreeMap<String, BTreeMap<u64, Vec<u64>>>);

impl Golden {
    /// Parses `golden.json`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("golden.json: {e}"))?;
        let Value::Object(models) = v else {
            return Err("golden.json: top level must be an object".into());
        };
        let mut out = BTreeMap::new();
        for (model, seeds) in models {
            let Value::Object(seeds) = seeds else {
                return Err(format!("golden.json: `{model}` must be an object"));
            };
            let mut per_seed = BTreeMap::new();
            for (seed, sums) in seeds {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("golden.json: bad data seed `{seed}`"))?;
                let Value::Array(sums) = sums else {
                    return Err(format!("golden.json: `{model}/{seed}` must be an array"));
                };
                let sums = sums
                    .iter()
                    .map(|s| match s {
                        Value::Str(hex) => u64::from_str_radix(hex, 16)
                            .map_err(|_| format!("golden.json: bad checksum `{hex}`")),
                        _ => Err("golden.json: checksums are hex strings".to_string()),
                    })
                    .collect::<Result<Vec<u64>, String>>()?;
                per_seed.insert(seed, sums);
            }
            out.insert(model, per_seed);
        }
        Ok(Self(out))
    }

    /// Reads and parses the file at `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Records the pins of one (model, data seed).
    pub fn set(&mut self, model: &str, data_seed: u64, sums: Vec<u64>) {
        self.0
            .entry(model.to_string())
            .or_default()
            .insert(data_seed, sums);
    }

    /// The pins of one (model, data seed), one per input.
    pub fn pins(&self, model: &str, data_seed: u64) -> Result<Pins, String> {
        self.0
            .get(model)
            .and_then(|m| m.get(&data_seed))
            .map(|sums| Pins(sums.clone()))
            .ok_or_else(|| {
                format!("golden.json has no pins for {model}, data seed {data_seed}; run --bless")
            })
    }

    /// Renders the file: one line per (model, data seed).
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let models: Vec<String> = self
            .0
            .iter()
            .map(|(model, seeds)| {
                let rows: Vec<String> = seeds
                    .iter()
                    .map(|(seed, sums)| {
                        let hex: Vec<String> =
                            sums.iter().map(|s| format!("\"{s:016x}\"")).collect();
                        format!("    \"{seed}\": [{}]", hex.join(", "))
                    })
                    .collect();
                format!("  \"{model}\": {{\n{}\n  }}", rows.join(",\n"))
            })
            .collect();
        out.push_str(&models.join(",\n"));
        out.push_str("\n}\n");
        out
    }
}

/// The pins of one model's inputs.
#[derive(Clone, Debug)]
pub struct Pins(Vec<u64>);

impl Pins {
    /// Whether `logits` are bit-identical to the pinned answer for input `i`.
    pub fn matches(&self, i: usize, logits: &[f32]) -> bool {
        self.0.get(i) == Some(&logits_checksum(logits))
    }

    /// Same, for a raw HTTP response body.
    pub fn matches_bytes(&self, i: usize, body: &[u8]) -> bool {
        self.0.get(i) == Some(&fnv1a64(body))
    }
}
