//! The user-facing search client.
//!
//! A [`SearchClient`] is what the workload generator's emulated users hold:
//! a handle to the front-end load balancer plus a deadline. Clients are
//! cheap to clone — closed-loop drivers clone one per thread.

use std::sync::Arc;
use std::time::Duration;

use jdvs_net::balancer::Balancer;
use jdvs_net::rpc::{CallTarget, RpcError};

use crate::protocol::{SearchQuery, SearchResponse};

/// A cloneable user handle through the front end, generic over its calls
/// to the blender tier: [`jdvs_net::tcp::TcpChannel`]s when serving (see
/// [`crate::serving::NetClient`]), or a test's fake.
pub struct SearchClient<T>
where
    T: CallTarget<Request = SearchQuery, Response = SearchResponse>,
{
    frontend: Arc<Balancer<T>>,
    deadline: Duration,
}

impl<T> Clone for SearchClient<T>
where
    T: CallTarget<Request = SearchQuery, Response = SearchResponse>,
{
    fn clone(&self) -> Self {
        Self {
            frontend: Arc::clone(&self.frontend),
            deadline: self.deadline,
        }
    }
}

impl<T> std::fmt::Debug for SearchClient<T>
where
    T: CallTarget<Request = SearchQuery, Response = SearchResponse>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchClient")
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl<T> SearchClient<T>
where
    T: CallTarget<Request = SearchQuery, Response = SearchResponse>,
{
    /// Creates a client (usually via
    /// [`crate::topology::SearchTopology::client`]).
    pub fn new(frontend: Arc<Balancer<T>>, deadline: Duration) -> Self {
        Self { frontend, deadline }
    }

    /// The per-query deadline.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Executes one query, stamping the client deadline as the query's
    /// end-to-end budget (unless the caller already stamped one); every
    /// hop below deducts its own elapsed time from that budget.
    ///
    /// # Errors
    ///
    /// Propagates the last [`RpcError`] if every blender fails.
    pub fn search(&self, mut query: SearchQuery) -> Result<SearchResponse, RpcError> {
        if query.budget.is_none() {
            query.budget = Some(self.deadline);
        }
        self.frontend.call(query, self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::time::Instant;

    type Budgets = Arc<Mutex<Vec<Option<Duration>>>>;

    /// A blender stand-in that answers at once with an empty response and
    /// records the budget each query arrived with.
    struct Recorder {
        budgets: Budgets,
    }

    impl CallTarget for Recorder {
        type Request = SearchQuery;
        type Response = SearchResponse;
        type Pending = ();

        fn start(&self, query: SearchQuery, _deadline: Duration) {
            self.budgets.lock().push(query.budget);
        }

        fn wait(&self, _: &mut (), _: Option<Instant>) -> Option<Result<SearchResponse, RpcError>> {
            Some(Ok(SearchResponse::default()))
        }

        fn is_down(&self) -> bool {
            false
        }

        fn target_name(&self) -> &str {
            "recorder"
        }
    }

    fn client(deadline: Duration) -> (SearchClient<Recorder>, Budgets) {
        let budgets = Budgets::default();
        let recorder = Recorder {
            budgets: Arc::clone(&budgets),
        };
        let frontend = Arc::new(Balancer::new(vec![recorder]));
        (SearchClient::new(frontend, deadline), budgets)
    }

    #[test]
    fn client_stamps_its_deadline_unless_the_query_carries_a_budget() {
        let (client, budgets) = client(Duration::from_secs(2));
        assert_eq!(client.deadline(), Duration::from_secs(2));
        let resp = client
            .search(SearchQuery::by_image_url("missing", 3))
            .unwrap();
        assert!(resp.results.is_empty());
        let own = SearchQuery::by_image_url("missing", 3).with_budget(Duration::from_millis(7));
        client.search(own).unwrap();
        assert_eq!(
            *budgets.lock(),
            vec![Some(Duration::from_secs(2)), Some(Duration::from_millis(7))]
        );
    }

    #[test]
    fn clients_clone_cheaply() {
        let (client, budgets) = client(Duration::from_secs(2));
        let clones: Vec<_> = (0..8).map(|_| client.clone()).collect();
        for c in clones {
            let _ = c.search(SearchQuery::by_image_url("missing", 1)).unwrap();
        }
        assert_eq!(
            budgets.lock().len(),
            8,
            "every clone reached the one front end"
        );
    }
}
