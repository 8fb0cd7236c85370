//! RPC contract: the service trait, call targets, and call errors.

use std::time::{Duration, Instant};

/// A request handler served by a [`crate::tcp::TcpTier`].
///
/// One service instance is shared by all of a tier's connection threads,
/// so handlers must be `Sync`; jdvs services (searchers, brokers, blenders)
/// hold their state in the concurrent structures of `jdvs-core`.
pub trait Service: Send + Sync + 'static {
    /// Request message type.
    type Request: Send + 'static;
    /// Response message type.
    type Response: Send + 'static;

    /// Handles one request. Runs on the tier's connection thread.
    fn handle(&self, req: Self::Request) -> Self::Response;
}

/// Something a [`crate::balancer::Balancer`] can route requests to: a
/// [`crate::tcp::TcpChannel`] to a remote tier, or a test's fake. The
/// balancer's resilience machinery (budgeted failover, circuit breakers,
/// hedging) is written against this trait.
///
/// A call is **split-phase**: [`CallTarget::start`] sends the request and
/// returns at once with a [`CallTarget::Pending`]; the reply is collected
/// later with [`CallTarget::finish`]. A caller fanning out to several
/// targets starts every branch before finishing any, so the branches are
/// served concurrently without a thread per branch. The call's deadline
/// runs from its `start`.
pub trait CallTarget: Send + Sync + 'static {
    /// Request message type.
    type Request: Send + 'static;
    /// Response message type.
    type Response: Send + 'static;
    /// A call that has been sent and not yet collected. A call that could
    /// not even be sent is a `Pending` too: it carries its error to
    /// `finish`.
    type Pending: Send + 'static;

    /// Sends one request without waiting for the reply.
    fn start(&self, request: Self::Request, deadline: Duration) -> Self::Pending;

    /// Waits for the reply of a started call: until the call's own
    /// deadline when `until` is `None` (the result is then always `Some`),
    /// otherwise no longer than `until`, returning `None` if the call is
    /// still in flight at that instant. Nothing is lost by a `None`; the
    /// same `pending` can be waited on again.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`]; see the implementor for the exact mapping.
    fn wait(
        &self,
        pending: &mut Self::Pending,
        until: Option<Instant>,
    ) -> Option<Result<Self::Response, RpcError>>;

    /// Collects the reply of a started call, waiting up to its deadline.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`]; see the implementor for the exact mapping.
    fn finish(&self, mut pending: Self::Pending) -> Result<Self::Response, RpcError> {
        self.wait(&mut pending, None)
            .expect("a wait bounded only by the call's own deadline resolves")
    }

    /// Performs one call with a deadline: `start`, then `finish`.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`]; see the implementor for the exact mapping.
    fn call(&self, request: Self::Request, deadline: Duration) -> Result<Self::Response, RpcError> {
        self.finish(self.start(request, deadline))
    }

    /// Whether the target is known-dead without spending a call on it
    /// (best-effort; network targets may only learn from a failed call).
    fn is_down(&self) -> bool;

    /// Human-readable target name for diagnostics.
    fn target_name(&self) -> &str;
}

/// Errors a remote call can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// No reply within the caller's deadline.
    Timeout {
        /// The deadline that elapsed.
        deadline: Duration,
    },
    /// The target is down: its listener is closed or crashed, the
    /// connection broke, or fault injection marked it down.
    NodeDown,
    /// The fault injector dropped the request.
    Dropped,
    /// The target's admission controller rejected the request (rate limit,
    /// full queue, hopeless deadline, or drain). Deliberate fast rejection
    /// under overload — the service is alive, and retrying elsewhere (or
    /// later) is the right reaction, unlike [`RpcError::NodeDown`].
    Overloaded,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Timeout { deadline } => write!(f, "rpc timed out after {deadline:?}"),
            RpcError::NodeDown => f.write_str("target node is down"),
            RpcError::Dropped => f.write_str("request dropped by fault injection"),
            RpcError::Overloaded => f.write_str("request shed by target admission control"),
        }
    }
}

impl std::error::Error for RpcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(RpcError::Timeout {
            deadline: Duration::from_millis(5)
        }
        .to_string()
        .contains("timed out"));
        assert!(RpcError::NodeDown.to_string().contains("down"));
        assert!(RpcError::Dropped.to_string().contains("dropped"));
        assert!(RpcError::Overloaded.to_string().contains("shed"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes(_: &dyn std::error::Error) {}
        takes(&RpcError::NodeDown);
    }
}
