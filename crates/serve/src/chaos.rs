//! Deterministic I/O chaos plans for the daemon.
//!
//! The engine layer already has [`FaultPlan`]: worker panics and
//! allocation failures injected at exact `(region, chunk)` coordinates,
//! with no clock and no RNG. This module extends that grammar to the
//! **I/O path** with connection-coordinate faults, so the daemon's
//! armor (deadlines, bounded reads, panic isolation, structured error
//! responses) can be exercised just as reproducibly as the engines.
//!
//! A chaos spec is a comma-separated token list. Tokens of the form
//! `c<N>[r<M>]:<kind>` are **connection faults**: they fire on the
//! `M`-th request (default 0) of the `N`-th connection the daemon
//! accepts. Connection ordinals are dense (0, 1, 2, …) and assigned at
//! accept time; request ordinals count the JSON lines read on that
//! connection. Every other token — `r<R>c<C>:panic`, `nosnapshot`,
//! `seed:<u64>` — is forwarded verbatim to
//! [`FaultPlan::parse_token`], so one spec string can fault both the
//! engines and the sockets: `"c1:garbage,r0c0:panic"`.
//!
//! The kinds, and what the daemon does when one fires:
//!
//! * `drop` — close the connection mid-response: the response to the
//!   faulted request is computed, **no bytes** of it are written, and
//!   the socket closes. The client sees EOF; the daemon survives.
//! * `stall` — the read deadline "fires" on the faulted request: the
//!   daemon behaves exactly as if [`set_read_timeout`] had tripped,
//!   writing a structured `{"error":"io-timeout"}` line and closing
//!   the connection, without actually waiting out a clock.
//! * `garbage` — a line of garbage bytes "arrives" before the faulted
//!   request: the malformed-line path fires (structured
//!   `{"error":"bad-request"}` response, `lines_rejected` ledger
//!   bump), and the *real* request is then served completely
//!   unperturbed.
//! * `shortwrite` — the response to the faulted request is truncated:
//!   only the first half of its bytes are written (never the trailing
//!   newline), then the connection closes.
//! * `panic` — the connection handler panics before serving the
//!   faulted request, exercising the accept loop's `catch_unwind`
//!   isolation (`panics_recovered` ledger bump).
//!
//! Every fired fault increments exactly one counter in the daemon's
//! `stats` ledger, so a test driving a plan can assert the ledger
//! *exactly* — and because the coordinates are ordinals rather than
//! clocks, every request a plan does not touch must produce a response
//! byte-identical to the fault-free run (`tests/daemon_chaos.rs` pins
//! this differentially).
//!
//! [`set_read_timeout`]: std::net::TcpStream::set_read_timeout

use hac_runtime::governor::FaultPlan;

/// What a connection fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFaultKind {
    /// Close the connection without writing the computed response.
    Drop,
    /// Simulate a fired read deadline: structured timeout error, close.
    Stall,
    /// Inject one garbage line ahead of the real request.
    Garbage,
    /// Write only the first half of the response bytes, then close.
    ShortWrite,
    /// Panic inside the connection handler (isolation check).
    Panic,
}

impl ConnFaultKind {
    /// The grammar name.
    pub fn as_str(self) -> &'static str {
        match self {
            ConnFaultKind::Drop => "drop",
            ConnFaultKind::Stall => "stall",
            ConnFaultKind::Garbage => "garbage",
            ConnFaultKind::ShortWrite => "shortwrite",
            ConnFaultKind::Panic => "panic",
        }
    }
}

/// One injection point: fire `kind` on request `request` (0-based line
/// ordinal) of connection `conn` (0-based accept ordinal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnFault {
    pub conn: u64,
    pub request: u64,
    pub kind: ConnFaultKind,
}

/// A deterministic I/O chaos plan: connection-coordinate faults plus an
/// embedded engine-level [`FaultPlan`] for any `r<R>c<C>` tokens the
/// spec carried. Parsed from `hacc daemon --chaos-plan`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    pub conns: Vec<ConnFault>,
    /// Engine-level points riding in the same spec (unused by the
    /// daemon itself; surfaced so a driver can hand them to the
    /// engines).
    pub engine: FaultPlan,
}

impl ChaosPlan {
    /// The connection fault scheduled for `(conn, request)`, if any.
    pub fn lookup(&self, conn: u64, request: u64) -> Option<ConnFaultKind> {
        self.conns
            .iter()
            .find(|p| p.conn == conn && p.request == request)
            .map(|p| p.kind)
    }

    /// Whether any fault at all targets connection `conn` (used to
    /// skip per-line lookups on untouched connections).
    pub fn touches_conn(&self, conn: u64) -> bool {
        self.conns.iter().any(|p| p.conn == conn)
    }

    /// Parse a chaos spec. `c<N>[r<M>]:drop|stall|garbage|shortwrite|panic`
    /// tokens become connection faults; every other token must be valid
    /// under the engine fault-plan grammar and lands in
    /// [`ChaosPlan::engine`].
    ///
    /// # Errors
    /// A human-readable message naming the offending token.
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::default();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match Self::parse_conn_token(tok)? {
                Some(point) => plan.conns.push(point),
                None => plan.engine.parse_token(tok)?,
            }
        }
        Ok(plan)
    }

    /// Parse one token as a connection fault. Returns `Ok(None)` when
    /// the token does not start with the `c<digit>` connection prefix
    /// (it belongs to the engine grammar), `Err` when it does but is
    /// malformed.
    fn parse_conn_token(tok: &str) -> Result<Option<ConnFault>, String> {
        let Some(rest) = tok.strip_prefix('c') else {
            return Ok(None);
        };
        if !rest.starts_with(|c: char| c.is_ascii_digit()) {
            return Ok(None);
        }
        let (coords, kind) = rest
            .split_once(':')
            .ok_or_else(|| format!("bad chaos point `{tok}` (missing `:kind`)"))?;
        let (conn, request) = match coords.split_once('r') {
            Some((c, r)) => (
                c.parse::<u64>()
                    .map_err(|_| format!("bad connection ordinal in `{tok}`"))?,
                r.parse::<u64>()
                    .map_err(|_| format!("bad request ordinal in `{tok}`"))?,
            ),
            None => (
                coords
                    .parse::<u64>()
                    .map_err(|_| format!("bad connection ordinal in `{tok}`"))?,
                0,
            ),
        };
        let kind = match kind {
            "drop" => ConnFaultKind::Drop,
            "stall" => ConnFaultKind::Stall,
            "garbage" => ConnFaultKind::Garbage,
            "shortwrite" => ConnFaultKind::ShortWrite,
            "panic" => ConnFaultKind::Panic,
            other => return Err(format!("unknown chaos kind `{other}` in `{tok}`")),
        };
        Ok(Some(ConnFault {
            conn,
            request,
            kind,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_runtime::governor::FaultKind;

    #[test]
    fn parses_connection_coordinates_and_kinds() {
        let plan = ChaosPlan::parse("c0:drop, c3r2:garbage,c7:shortwrite,c1:stall,c4:panic")
            .expect("parse");
        assert_eq!(plan.conns.len(), 5);
        assert_eq!(plan.lookup(0, 0), Some(ConnFaultKind::Drop));
        assert_eq!(plan.lookup(3, 2), Some(ConnFaultKind::Garbage));
        assert_eq!(
            plan.lookup(3, 0),
            None,
            "request ordinal is part of the key"
        );
        assert_eq!(plan.lookup(7, 0), Some(ConnFaultKind::ShortWrite));
        assert_eq!(plan.lookup(1, 0), Some(ConnFaultKind::Stall));
        assert_eq!(plan.lookup(4, 0), Some(ConnFaultKind::Panic));
        assert!(plan.touches_conn(3));
        assert!(!plan.touches_conn(2));
        assert!(plan.engine.points.is_empty());
    }

    #[test]
    fn engine_tokens_ride_in_the_same_spec() {
        let plan = ChaosPlan::parse("c2:drop,r0c1:panic,nosnapshot,c5:garbage").expect("parse");
        assert_eq!(plan.conns.len(), 2);
        assert_eq!(plan.engine.points.len(), 1);
        assert_eq!(plan.engine.lookup(0, 1), Some(FaultKind::Panic));
        assert!(!plan.engine.snapshot);
    }

    #[test]
    fn malformed_tokens_are_rejected_with_the_token_named() {
        for bad in ["c1:explode", "c:drop", "cXr1:drop", "c1r:drop", "c1drop"] {
            let err = ChaosPlan::parse(bad).expect_err(bad);
            assert!(err.contains(bad) || err.contains("bad"), "{bad}: {err}");
        }
        // A bare engine token that is malformed still errors (forwarded).
        assert!(ChaosPlan::parse("r1c2:fire").is_err());
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        let plan = ChaosPlan::parse("").expect("parse");
        assert_eq!(plan, ChaosPlan::default());
        assert_eq!(plan.lookup(0, 0), None);
    }
}
