//! Typed client-facing failures.
//!
//! Every way a query can fail maps to one variant here, and every variant
//! reaches the client as a structured JSON error (plus an HTTP status on the
//! HTTP front door) — never as a dropped connection. The split matters
//! operationally: a `MalformedQuery` is the client's bug, `OverBudget` is a
//! policy rejection, `DeadlineExceeded` and `Shed` are load signals the
//! client should back off on, and `Internal` is ours.

use serde_json::Value;

/// A client-visible planning-service failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The query JSON is structurally invalid (wrong type, missing field,
    /// unknown scheme name, zero devices, ...).
    MalformedQuery(String),
    /// The requested model is not in the zoo.
    UnknownModel(String),
    /// The requested topology preset does not exist.
    UnknownTopology(String),
    /// The query is well-formed but exceeds the service's configured search
    /// budget (too many devices, too large a mini-batch).
    OverBudget(String),
    /// The query's deadline passed before a result could be delivered.
    DeadlineExceeded,
    /// The admission controller rejected the query: the worker queue is
    /// full. Retry with backoff.
    Shed,
    /// The service failed internally (a search panic, a poisoned plan).
    Internal(String),
}

impl ServeError {
    /// Stable machine-readable error code.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::MalformedQuery(_) => "malformed_query",
            ServeError::UnknownModel(_) => "unknown_model",
            ServeError::UnknownTopology(_) => "unknown_topology",
            ServeError::OverBudget(_) => "over_budget",
            ServeError::DeadlineExceeded => "deadline_exceeded",
            ServeError::Shed => "shed",
            ServeError::Internal(_) => "internal",
        }
    }

    /// HTTP status for the JSON-over-HTTP front door.
    pub fn http_status(&self) -> u16 {
        match self {
            ServeError::MalformedQuery(_) => 400,
            ServeError::UnknownModel(_) | ServeError::UnknownTopology(_) => 404,
            ServeError::OverBudget(_) => 422,
            ServeError::DeadlineExceeded => 504,
            ServeError::Shed => 503,
            ServeError::Internal(_) => 500,
        }
    }

    /// The error as the response body the wire protocols send.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "ok": false,
            "error": {
                "code": self.code(),
                "message": self.to_string(),
            },
        })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::MalformedQuery(m) => write!(f, "malformed query: {m}"),
            ServeError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            ServeError::UnknownTopology(t) => write!(f, "unknown topology {t:?}"),
            ServeError::OverBudget(m) => write!(f, "over budget: {m}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Shed => write!(f, "shed: worker queue full, retry with backoff"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<chimera_perf::SearchError> for ServeError {
    /// A search that ran out of time is the client's deadline; one whose
    /// planner built a schedule that does not verify is ours, and the
    /// message names the schedule and the first diagnostic code.
    fn from(e: chimera_perf::SearchError) -> Self {
        match e {
            chimera_perf::SearchError::Timeout => ServeError::DeadlineExceeded,
            unclean @ chimera_perf::SearchError::Unclean(_) => {
                ServeError::Internal(unclean.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_statuses_and_json_are_consistent() {
        let all = [
            ServeError::MalformedQuery("x".into()),
            ServeError::UnknownModel("x".into()),
            ServeError::UnknownTopology("x".into()),
            ServeError::OverBudget("x".into()),
            ServeError::DeadlineExceeded,
            ServeError::Shed,
            ServeError::Internal("x".into()),
        ];
        let mut codes = std::collections::HashSet::new();
        for e in &all {
            assert!(codes.insert(e.code()), "duplicate code {}", e.code());
            assert!((400..=599).contains(&e.http_status()), "{e}");
            let j = e.to_json();
            assert_eq!(j["ok"], serde_json::json!(false));
            assert_eq!(j["error"]["code"].as_str().unwrap(), e.code());
            assert!(!j["error"]["message"].as_str().unwrap().is_empty());
        }
    }

    #[test]
    fn malformed_query_maps_to_400() {
        let e = ServeError::MalformedQuery("devices missing".into());
        assert_eq!((e.code(), e.http_status()), ("malformed_query", 400));
    }

    #[test]
    fn unknown_model_maps_to_404() {
        let e = ServeError::UnknownModel("bert4".into());
        assert_eq!((e.code(), e.http_status()), ("unknown_model", 404));
    }

    #[test]
    fn unknown_topology_maps_to_404() {
        let e = ServeError::UnknownTopology("torus".into());
        assert_eq!((e.code(), e.http_status()), ("unknown_topology", 404));
    }

    #[test]
    fn over_budget_maps_to_422() {
        let e = ServeError::OverBudget("devices 4096 > 512".into());
        assert_eq!((e.code(), e.http_status()), ("over_budget", 422));
    }

    #[test]
    fn deadline_exceeded_maps_to_504() {
        let e = ServeError::DeadlineExceeded;
        assert_eq!((e.code(), e.http_status()), ("deadline_exceeded", 504));
    }

    #[test]
    fn shed_maps_to_503_and_says_retry() {
        let e = ServeError::Shed;
        assert_eq!((e.code(), e.http_status()), ("shed", 503));
        // The one retryable-by-design variant: the message must say so.
        assert!(e.to_string().contains("retry"), "{e}");
    }

    #[test]
    fn a_search_error_is_the_clients_deadline_or_our_bug() {
        use chimera_perf::{PlanScheme, SearchError, StructureKey, Unclean};
        assert_eq!(
            ServeError::from(SearchError::Timeout),
            ServeError::DeadlineExceeded
        );
        let unclean = Unclean {
            key: StructureKey {
                scheme: PlanScheme::Dapple,
                d: 4,
                n: 8,
                recompute: false,
            },
            code: "deadlock_cycle",
        };
        let e = ServeError::from(SearchError::Unclean(unclean));
        assert_eq!((e.code(), e.http_status()), ("internal", 500));
        let message = e.to_string();
        for part in ["DAPPLE", "D=4 N=8", "deadlock_cycle"] {
            assert!(message.contains(part), "{message}");
        }
    }

    #[test]
    fn internal_maps_to_500() {
        let e = ServeError::Internal("candidate does not rebuild".into());
        assert_eq!((e.code(), e.http_status()), ("internal", 500));
    }
}
