//! The one place admission semantics become protocol semantics: every
//! [`RejectReason`] and every terminal [`BitFlowError`] maps to a wire
//! status in a single exhaustive `match` — adding a variant upstream is a
//! compile error here, not a silent `500`.

use bitflow_graph::{BitFlowError, RejectReason};

/// Wire status for a submission the serving runtime refused to admit.
///
/// * Queue-full and breaker shedding are transient overload: `429`, and
///   the caller should honour the accompanying `Retry-After`.
/// * Quota exhaustion is also `429` — the tenant's own backlog, flagged
///   with an `x-bitflow-quota` header rather than a server-wide hint.
/// * Draining is `503`: this instance is going away, try another.
/// * Memory pressure is `507 Insufficient Storage`: the byte budget, not
///   the queue, refused the request — transient, so retry with backoff.
#[must_use]
pub fn reject_status(reason: RejectReason) -> u16 {
    match reason {
        RejectReason::QueueFull => 429,
        RejectReason::Shedding => 429,
        RejectReason::Draining => 503,
        RejectReason::QuotaExceeded => 429,
        RejectReason::MemoryPressure => 507,
    }
}

/// Whether a rejection should carry a `Retry-After` backoff hint.
#[must_use]
pub fn reject_wants_retry_after(reason: RejectReason) -> bool {
    match reason {
        RejectReason::QueueFull | RejectReason::Shedding | RejectReason::MemoryPressure => true,
        RejectReason::Draining | RejectReason::QuotaExceeded => false,
    }
}

/// Wire status for a request that was admitted (or refused) and resolved
/// to a terminal [`BitFlowError`].
///
/// Client-caused failures are 4xx: a bad tensor is `400`, a missed
/// deadline `504` (the budget the client set expired inside the server),
/// a client that walked away `499`. Model/server defects are `500`.
#[must_use]
pub fn error_status(err: &BitFlowError) -> u16 {
    match err {
        BitFlowError::Spec(_) => 500,
        BitFlowError::WeightMismatch(_) => 500,
        BitFlowError::InputGeometry(_) => 400,
        BitFlowError::ModelCorrupt(_) => 500,
        BitFlowError::UnsupportedKernel(_) => 500,
        BitFlowError::SlotType(_) => 500,
        BitFlowError::DeadlineExceeded => 504,
        BitFlowError::Cancelled => 499,
        BitFlowError::Rejected(reason) => reject_status(*reason),
        BitFlowError::ResourceExhausted { .. } => 507,
        BitFlowError::Internal(_) => 500,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use bitflow_graph::error::{InputGeometry, SlotKind, SlotTypeError, SpecError, WeightMismatch};
    use bitflow_graph::ModelIoError;
    use bitflow_simd::scheduler::UnsupportedKernel;

    #[test]
    fn every_reject_reason_has_a_status() {
        // One row per variant; a new variant must be added here AND in the
        // match (which the compiler already enforces).
        let table = [
            (RejectReason::QueueFull, 429, true),
            (RejectReason::Shedding, 429, true),
            (RejectReason::Draining, 503, false),
            (RejectReason::QuotaExceeded, 429, false),
            (RejectReason::MemoryPressure, 507, true),
        ];
        for (reason, status, wants_hint) in table {
            assert_eq!(reject_status(reason), status, "{reason:?}");
            assert_ne!(crate::http::reason(status), "Unknown", "{status}");
            assert_eq!(
                reject_wants_retry_after(reason),
                wants_hint,
                "{reason:?} retry-after"
            );
        }
    }

    #[test]
    fn every_error_variant_has_a_status() {
        let table: Vec<(BitFlowError, u16)> = vec![
            (BitFlowError::Spec(SpecError::EmptyNetwork), 500),
            (
                BitFlowError::WeightMismatch(WeightMismatch::LayerCount {
                    spec: 1,
                    weights: 2,
                }),
                500,
            ),
            (
                BitFlowError::InputGeometry(InputGeometry::NonFinite { index: 0 }),
                400,
            ),
            (BitFlowError::ModelCorrupt(ModelIoError::BadMagic), 500),
            (
                BitFlowError::UnsupportedKernel(UnsupportedKernel::ZeroStride),
                500,
            ),
            (
                BitFlowError::SlotType(SlotTypeError {
                    layer: "conv1".into(),
                    expected: SlotKind::Bit,
                    actual: SlotKind::Vec,
                }),
                500,
            ),
            (BitFlowError::DeadlineExceeded, 504),
            (BitFlowError::Cancelled, 499),
            (BitFlowError::Rejected(RejectReason::QueueFull), 429),
            (BitFlowError::Rejected(RejectReason::Shedding), 429),
            (BitFlowError::Rejected(RejectReason::Draining), 503),
            (BitFlowError::Rejected(RejectReason::QuotaExceeded), 429),
            (BitFlowError::Rejected(RejectReason::MemoryPressure), 507),
            (
                BitFlowError::ResourceExhausted {
                    what: "inference context",
                    bytes: 4096,
                },
                507,
            ),
            (BitFlowError::Internal("panic".into()), 500),
        ];
        for (err, status) in &table {
            assert_eq!(error_status(err), *status, "{err:?}");
        }
        // 4xx/5xx sanity: every mapped status is an error status a real
        // client stack will surface, never a 2xx/3xx, and goes out with
        // its reason phrase.
        for (err, status) in &table {
            assert!((400..600).contains(status), "{err:?} -> {status}");
            assert_ne!(crate::http::reason(*status), "Unknown", "{status}");
        }
    }
}
