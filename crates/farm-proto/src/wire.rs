//! Parsed response types: what the farm's NDJSON and JSON bodies mean.

use lp_obs::json::Value;

/// One line of a `POST /jobs` NDJSON response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The submission was accepted (queued, deduped, or served from the
    /// completed-work cache — `state` is `queued` or `done`).
    Accepted {
        /// Assigned job id (on the node that owns the job).
        id: u64,
        /// `queued` | `done`.
        state: String,
        /// Present when answered by dedup: the primary/source job id.
        dedup_of: Option<u64>,
        /// The job's distributed-trace id, when the server reported one.
        trace_id: Option<String>,
        /// Cluster mode: the owner node that actually holds the job,
        /// when the submission was forwarded off the contacted node.
        forwarded_to: Option<String>,
    },
    /// The submission was rejected.
    Rejected {
        /// Human-readable reason (`queue full`, bad-spec message, ...).
        error: String,
        /// Backpressure hint, when the queue was full.
        retry_after_ms: Option<u64>,
    },
}

impl SubmitOutcome {
    /// Parses one response line (already JSON-decoded).
    ///
    /// # Errors
    /// A message when the object is neither an accept nor a reject.
    pub fn from_value(v: &Value) -> Result<SubmitOutcome, String> {
        if let Some(error) = v.get("error").and_then(Value::as_str) {
            return Ok(SubmitOutcome::Rejected {
                error: error.to_string(),
                retry_after_ms: v.get("retry_after_ms").and_then(Value::as_u64),
            });
        }
        let id = v
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("submit outcome missing 'id'")?;
        let state = v
            .get("state")
            .and_then(Value::as_str)
            .ok_or("submit outcome missing 'state'")?
            .to_string();
        Ok(SubmitOutcome::Accepted {
            id,
            state,
            dedup_of: v.get("dedup_of").and_then(Value::as_u64),
            trace_id: v
                .get("trace_id")
                .and_then(Value::as_str)
                .map(str::to_string),
            forwarded_to: v
                .get("forwarded_to")
                .and_then(Value::as_str)
                .map(str::to_string),
        })
    }

    /// Renders the outcome back to its wire object (the inverse of
    /// [`SubmitOutcome::from_value`]) — forwarding nodes relay a peer's
    /// outcome to the client through this.
    pub fn to_value(&self) -> Value {
        match self {
            SubmitOutcome::Accepted {
                id,
                state,
                dedup_of,
                trace_id,
                forwarded_to,
            } => {
                let mut members = vec![("id".to_string(), Value::Int(*id as i128))];
                if let Some(t) = trace_id {
                    members.push(("trace_id".to_string(), Value::Str(t.clone())));
                }
                members.push(("state".to_string(), Value::Str(state.clone())));
                if let Some(d) = dedup_of {
                    members.push(("dedup_of".to_string(), Value::Int(*d as i128)));
                }
                if let Some(owner) = forwarded_to {
                    members.push(("forwarded_to".to_string(), Value::Str(owner.clone())));
                }
                Value::Obj(members)
            }
            SubmitOutcome::Rejected {
                error,
                retry_after_ms,
            } => {
                let mut members = vec![("error".to_string(), Value::Str(error.clone()))];
                if let Some(ms) = retry_after_ms {
                    members.push(("retry_after_ms".to_string(), Value::Int(*ms as i128)));
                }
                Value::Obj(members)
            }
        }
    }

    /// The assigned id, when accepted.
    pub fn id(&self) -> Option<u64> {
        match self {
            SubmitOutcome::Accepted { id, .. } => Some(*id),
            SubmitOutcome::Rejected { .. } => None,
        }
    }
}

/// Parsed `GET /jobs/{id}` body — the client's view of a job record.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Lifecycle state string (`queued`, `running`, `done`, `failed`,
    /// `cancelled`).
    pub state: String,
    /// 32-hex-char content key.
    pub key: String,
    /// Execution attempts consumed.
    pub attempts: u64,
    /// Result document, when done.
    pub result: Option<Value>,
    /// Terminal error, when failed/cancelled.
    pub error: Option<String>,
    /// The job's distributed-trace id.
    pub trace_id: Option<String>,
    /// The record exactly as the server sent it (what `status` prints).
    pub record: Value,
}

impl JobStatus {
    /// Whether the state is terminal.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state.as_str(), "done" | "failed" | "cancelled")
    }

    /// Parses a job-record body.
    ///
    /// # Errors
    /// A message when required fields are missing.
    pub fn from_value(v: &Value) -> Result<JobStatus, String> {
        Ok(JobStatus {
            id: v
                .get("id")
                .and_then(Value::as_u64)
                .ok_or("job record missing 'id'")?,
            state: v
                .get("state")
                .and_then(Value::as_str)
                .ok_or("job record missing 'state'")?
                .to_string(),
            key: v
                .get("key")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            attempts: v.get("attempts").and_then(Value::as_u64).unwrap_or(0),
            result: match v.get("result") {
                None | Some(Value::Null) => None,
                Some(r) => Some(r.clone()),
            },
            error: match v.get("error") {
                None | Some(Value::Null) => None,
                Some(e) => e.as_str().map(str::to_string),
            },
            trace_id: v
                .get("trace_id")
                .and_then(Value::as_str)
                .map(str::to_string),
            record: v.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_parse_accepts_and_rejects() {
        let v = lp_obs::json::parse(r#"{"id":7,"trace_id":"ab","state":"queued"}"#).unwrap();
        let o = SubmitOutcome::from_value(&v).unwrap();
        assert_eq!(o.id(), Some(7));
        assert!(matches!(o, SubmitOutcome::Accepted { ref state, .. } if state == "queued"));

        let v =
            lp_obs::json::parse(r#"{"id":8,"state":"done","dedup_of":7,"trace_id":"cd"}"#).unwrap();
        match SubmitOutcome::from_value(&v).unwrap() {
            SubmitOutcome::Accepted {
                dedup_of, state, ..
            } => {
                assert_eq!(dedup_of, Some(7));
                assert_eq!(state, "done");
            }
            other => panic!("expected accept, got {other:?}"),
        }

        let v = lp_obs::json::parse(r#"{"error":"queue full","retry_after_ms":1000}"#).unwrap();
        match SubmitOutcome::from_value(&v).unwrap() {
            SubmitOutcome::Rejected {
                error,
                retry_after_ms,
            } => {
                assert_eq!(error, "queue full");
                assert_eq!(retry_after_ms, Some(1000));
            }
            other => panic!("expected reject, got {other:?}"),
        }

        let bad = lp_obs::json::parse(r#"{"state":"queued"}"#).unwrap();
        assert!(SubmitOutcome::from_value(&bad).is_err());
    }

    #[test]
    fn job_status_parses_terminal_states() {
        let v = lp_obs::json::parse(
            r#"{"id":3,"state":"done","key":"ff","attempts":1,"result":{"regions":2},"error":null}"#,
        )
        .unwrap();
        let s = JobStatus::from_value(&v).unwrap();
        assert!(s.is_terminal());
        assert_eq!(s.result.unwrap().get("regions").unwrap().as_u64(), Some(2));
        assert_eq!(s.error, None);
    }
}
