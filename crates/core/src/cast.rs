//! The **Cast** integrator: executes data exchange graphs over Object
//! stores (§3.2).
//!
//! Cast watches the stores of every alias the DXG reads, and on each
//! state change runs one *activation*:
//!
//! 1. **bind** — resolve each alias to a concrete object. `Correlated`
//!    bindings use the triggering object's key (the retail app correlates
//!    checkout order, payment, and shipment by order key); `Fixed`
//!    bindings name a singleton (the smart-home stores).
//! 2. **read** — fetch every bound object (missing targets start empty).
//! 3. **evaluate** — run the plan's steps in dependency order; each step
//!    consolidates all assignments to one target into a single patch
//!    (§3.3 consolidation). Assignments whose inputs are not available
//!    yet (evaluation errors or `null` results) are skipped — they will
//!    fire on a later activation once the state they need appears.
//! 4. **write** — patch each target object. The store suppresses no-op
//!    patches, so activations triggered by Cast's own writes converge
//!    instead of looping.
//!
//! In [`CastMode::Pushdown`] the evaluate+write phases run *inside* the
//! exchange as a registered UDF — one round trip per activation instead
//! of one per read plus one per write.
//!
//! A running Cast is driven through its [`Controller`]:
//! [`Controller::reconfigure`] swaps the entire DXG at run time — no
//! knactor is touched, rebuilt, or redeployed.

use crate::integrator::{
    self, wrong_kind, Controller, Edge, Host, IntegratorConfig, Progress, Source,
};
use crate::metrics::{global, inc_activation, observe_stage};
use crate::telemetry::TraceCollector;
use knactor_dxg::{Dxg, Plan};
use knactor_expr::Env;
use knactor_net::api::watch_event;
use knactor_net::proto::Request;
use knactor_net::ExchangeApi;
use knactor_store::{EventKind, PutItem, StoredObject, UdfBinding, WatchEvent};
use knactor_types::{Error, ObjectKey, Result, Revision, StoreId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// How an alias resolves to an object key at activation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyBinding {
    /// Always this key (singleton stores, e.g. `lamp/config:cfg`).
    Fixed(ObjectKey),
    /// The key of the object that triggered the activation.
    Correlated,
}

/// Binds a DXG alias to a store (and key policy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CastBinding {
    pub store: StoreId,
    pub key: KeyBinding,
}

impl CastBinding {
    pub fn correlated(store: impl Into<StoreId>) -> CastBinding {
        CastBinding {
            store: store.into(),
            key: KeyBinding::Correlated,
        }
    }

    pub fn fixed(store: impl Into<StoreId>, key: impl Into<ObjectKey>) -> CastBinding {
        CastBinding {
            store: store.into(),
            key: KeyBinding::Fixed(key.into()),
        }
    }
}

/// Client-side evaluation vs store-side pushdown (§3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CastMode {
    Direct,
    Pushdown { udf_name: String },
}

/// Full configuration of a Cast instance. Swappable at run time.
#[derive(Debug, Clone)]
pub struct CastConfig {
    pub name: String,
    pub dxg: Dxg,
    pub bindings: BTreeMap<String, CastBinding>,
    pub mode: CastMode,
}

/// `Dxg` has no `PartialEq`; [`knactor_dxg::equivalent`] is the right
/// notion anyway (formatting and declaration order must not register as
/// changes when the composer diffs configs).
impl PartialEq for CastConfig {
    fn eq(&self, other: &CastConfig) -> bool {
        self.name == other.name
            && self.bindings == other.bindings
            && self.mode == other.mode
            && knactor_dxg::equivalent(&self.dxg, &other.dxg)
    }
}

impl CastConfig {
    /// Validate: plan builds, every alias is bound.
    pub(crate) fn validate(&self) -> Result<Plan> {
        let plan = Plan::build(&self.dxg)?;
        for alias in self.dxg.inputs.keys() {
            if !self.bindings.contains_key(alias) {
                return Err(Error::Dxg(format!(
                    "cast {}: alias '{alias}' has no binding",
                    self.name
                )));
            }
        }
        Ok(plan)
    }
}

/// The Cast integrator factory.
pub struct Cast(pub(crate) Host);

impl Cast {
    pub fn new(api: Arc<dyn ExchangeApi>) -> Cast {
        Cast(Host::new(api))
    }

    pub fn with_traces(mut self, traces: TraceCollector) -> Cast {
        self.0.traces = traces;
        self
    }

    /// Run one activation manually (tests, benchmarks, CLI `cast run`).
    pub async fn activate_once(&self, config: &CastConfig, trigger_key: &ObjectKey) -> Result<()> {
        let plan = prepare(&self.0, config).await?;
        activation(&self.0, config, &plan, trigger_key).await
    }

    /// Spawn the integrator: validate, (for pushdown) register the UDF,
    /// and start the run loop, which watches every source store.
    /// [`Controller::reconfigure`] later swaps the entire DXG in place.
    pub async fn spawn(self, config: CastConfig) -> Result<Controller> {
        let plan = prepare(&self.0, &config).await?;
        Ok(integrator::spawn(|progress| CastEdge {
            host: self.0,
            config,
            plan,
            resume: Vec::new(),
            progress,
        }))
    }
}

/// Make `config` runnable: validate it and, for pushdown, register its
/// UDF with the exchange.
async fn prepare(host: &Host, config: &CastConfig) -> Result<Plan> {
    let plan = config.validate()?;
    if let CastMode::Pushdown { udf_name } = &config.mode {
        host.api
            .register_udf(
                udf_name.to_string(),
                Plan::udf_inputs(&config.dxg),
                plan.to_udf_assignments(&config.dxg),
            )
            .await?;
    }
    Ok(plan)
}

/// Aliases whose stores must be watched: every alias the DXG reads from
/// or writes to (writes re-trigger forward propagation of dependents).
fn watch_aliases(dxg: &Dxg) -> Vec<String> {
    let mut aliases = dxg.source_aliases();
    for alias in dxg.target_aliases() {
        if !aliases.contains(&alias) {
            aliases.push(alias);
        }
    }
    aliases
}

/// A running Cast, as the shared run loop sees it.
struct CastEdge {
    host: Host,
    config: CastConfig,
    plan: Plan,
    /// Highest revision processed per watched alias (`watch_aliases`
    /// order): where a re-opened watch resumes. Emptied by reconfigure —
    /// a new DXG replays each store from `ZERO`, so existing objects are
    /// re-evaluated under it.
    resume: Vec<Revision>,
    progress: Arc<Progress>,
}

impl Edge for CastEdge {
    const KIND: &'static str = "cast";
    const TAILS: bool = false;
    type Event = WatchEvent;

    async fn reconfigure(&mut self, config: IntegratorConfig) -> Result<()> {
        let IntegratorConfig::Cast(config) = config else {
            return Err(wrong_kind(Self::KIND, &config));
        };
        // Reconfiguration is network-free — validation is offline — except
        // for **pushdown**: its UDF executes inside the target exchange,
        // so retargeting it toward a store the exchange does not host
        // would otherwise report success while the edge dead-loops on
        // watch restarts and the stale UDF registration keeps serving the
        // old target. Probe every binding store first, so a composer
        // apply rolls back instead of silently degrading.
        if let CastMode::Pushdown { udf_name } = &config.mode {
            for binding in config.bindings.values() {
                if self.host.api.list(binding.store.clone()).await.is_err() {
                    return Err(Error::PushdownUnavailable {
                        udf: udf_name.clone(),
                        store: binding.store.to_string(),
                    });
                }
            }
        }
        self.plan = prepare(&self.host, &config).await?;
        self.config = config;
        self.resume.clear();
        Ok(())
    }

    async fn open(&mut self) -> Result<Source<Self::Event>> {
        let aliases = watch_aliases(&self.config.dxg);
        self.resume.resize(aliases.len(), Revision::ZERO);
        let requests: Vec<_> = aliases
            .iter()
            .zip(&self.resume)
            .map(|(alias, from)| Request::Watch {
                store: self.config.bindings[alias].store.clone(),
                from: *from,
            })
            .collect();
        integrator::sources(&*self.host.api, requests, watch_event).await
    }

    /// One activation per distinct trigger key: folding the duplicate
    /// keys of a drained backlog batches events without ever skipping
    /// one, because an activation reads *current* state.
    async fn process(&mut self, events: Vec<(usize, WatchEvent)>) {
        let component = format!("cast:{}", self.config.name);
        let mut keys = Vec::new();
        let mut seen = BTreeSet::new();
        let mut live = 0;
        for (alias, event) in events {
            self.resume[alias] = self.resume[alias].max(event.revision);
            if event.kind == EventKind::Deleted {
                continue;
            }
            live += 1;
            if seen.insert(event.key.clone()) {
                keys.push(event.key);
            }
        }
        if live > keys.len() {
            global()
                .counter(
                    "knactor_cast_coalesced_events_total",
                    &[("integrator", &component)],
                )
                .add((live - keys.len()) as u64);
        }
        for key in keys {
            // Activation failures are logged as traces, never fatal: the
            // next event retries naturally.
            let _ = activation(&self.host, &self.config, &self.plan, &key).await;
            self.progress.processed.fetch_add(1, Ordering::Relaxed);
            inc_activation(&component);
        }
    }
}

fn resolve_key(binding: &CastBinding, trigger: &ObjectKey) -> ObjectKey {
    match &binding.key {
        KeyBinding::Fixed(k) => k.clone(),
        KeyBinding::Correlated => trigger.clone(),
    }
}

/// One activation: bind → read → evaluate → write.
///
/// Reads of all input aliases run concurrently (each `get` pays the
/// engine's read delay, so N inputs cost one delay instead of N), and
/// writes produced by the step loop are coalesced into one patch per
/// target alias, flushed — again concurrently — after every step has
/// evaluated. Steps still observe earlier steps' writes through the
/// local env mirror, so coalescing does not change the dataflow.
async fn activation(
    host: &Host,
    config: &CastConfig,
    plan: &Plan,
    trigger_key: &ObjectKey,
) -> Result<()> {
    let Host { api, fns, traces } = host;
    let trace_id = trigger_key.to_string();
    let component = format!("cast:{}", config.name);

    if let CastMode::Pushdown { udf_name } = &config.mode {
        let start = Instant::now();
        let bindings: Vec<UdfBinding> = config
            .bindings
            .iter()
            .map(|(alias, b)| UdfBinding {
                alias: alias.clone(),
                store: b.store.clone(),
                key: resolve_key(b, trigger_key),
            })
            .collect();
        let result = api.execute_udf(udf_name.clone(), bindings).await;
        let elapsed = start.elapsed();
        traces.record(&trace_id, &component, "pushdown-execute", elapsed);
        observe_stage(&component, "pushdown-execute", elapsed);
        return result.map(|_| ());
    }

    // Read phase: fetch every input alias concurrently.
    let start = Instant::now();
    let mut env = Env::new();
    if config.bindings.len() == 1 {
        // No parallelism to win — skip the task machinery.
        let (alias, binding) = config.bindings.iter().next().expect("len checked");
        let key = resolve_key(binding, trigger_key);
        env.bind(
            alias.clone(),
            fetched_value(api.get(binding.store.clone(), key).await)?,
        );
    } else {
        let fetches: Vec<_> = config
            .bindings
            .iter()
            .map(|(alias, binding)| {
                let api = Arc::clone(api);
                let alias = alias.clone();
                let store = binding.store.clone();
                let key = resolve_key(binding, trigger_key);
                tokio::spawn(async move { (alias, api.get(store, key).await) })
            })
            .collect();
        for fetch in fetches {
            let (alias, result) = fetch
                .await
                .map_err(|e| Error::Internal(format!("cast fetch task: {e}")))?;
            env.bind(alias, fetched_value(result)?);
        }
    }
    let elapsed = start.elapsed();
    traces.record(&trace_id, &component, "read-sources", elapsed);
    observe_stage(&component, "read-sources", elapsed);

    // Evaluate step by step (steps are dependency-ordered, so later steps
    // must observe earlier steps' writes via the local env), coalescing
    // all patches for one target alias into a single write.
    let mut pending: BTreeMap<String, Value> = BTreeMap::new();
    for step in &plan.steps {
        let start = Instant::now();
        let mut patch = Value::Object(serde_json::Map::new());
        let mut wrote = false;
        for &idx in &step.assignments {
            let a = &config.dxg.assignments[idx];
            match knactor_expr::eval(&a.expr, &env, fns) {
                // `null` means "input not present yet" — skip and let a
                // later activation fill it (see module docs).
                Ok(Value::Null) => {}
                Ok(v) => {
                    knactor_types::value::set_path(&mut patch, &a.target_path(), v)?;
                    wrote = true;
                }
                Err(_) => {
                    // Unready inputs (e.g. member access on a scalar that
                    // is still null upstream): skip, retry on next event.
                }
            }
        }
        let elapsed = start.elapsed();
        traces.record(&trace_id, &component, "evaluate", elapsed);
        observe_stage(&component, "evaluate", elapsed);
        if !wrote {
            continue;
        }
        // Mirror the write into the local env so later steps see it.
        if let Some(slot) = env.get(&step.target_alias).cloned().as_mut() {
            knactor_types::value::merge(slot, &patch);
            env.bind(step.target_alias.clone(), slot.clone());
        }
        match pending.entry(step.target_alias.clone()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(patch);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                knactor_types::value::merge(e.get_mut(), &patch);
            }
        }
    }

    // Write phase: the coalesced per-target patches go out as **one
    // batched wire op per target store** (`batch_put`) — N targets in a
    // store cost one round trip and one WAL group fsync, not N of each.
    // Distinct stores still flush concurrently.
    if pending.is_empty() {
        return Ok(());
    }
    let mut per_store: BTreeMap<StoreId, Vec<(String, PutItem)>> = BTreeMap::new();
    for (alias, patch) in pending {
        let binding = &config.bindings[&alias];
        let item = PutItem {
            key: resolve_key(binding, trigger_key),
            value: patch,
            upsert: true,
        };
        per_store
            .entry(binding.store.clone())
            .or_default()
            .push((alias, item));
    }
    let flush_group = |store: StoreId, group: Vec<(String, PutItem)>| {
        let api = Arc::clone(api);
        async move {
            let (aliases, items): (Vec<String>, Vec<PutItem>) = group.into_iter().unzip();
            let start = Instant::now();
            let result = api.batch_put(store, items).await;
            (aliases, start.elapsed(), result)
        }
    };
    let mut flushed = Vec::new();
    if per_store.len() == 1 {
        // No cross-store parallelism to win — skip the task machinery.
        let (store, group) = per_store.into_iter().next().expect("len checked");
        flushed.push(flush_group(store, group).await);
    } else {
        let tasks: Vec<_> = per_store
            .into_iter()
            .map(|(store, group)| tokio::spawn(flush_group(store, group)))
            .collect();
        for task in tasks {
            flushed.push(
                task.await
                    .map_err(|e| Error::Internal(format!("cast flush task: {e}")))?,
            );
        }
    }
    for (aliases, elapsed, result) in flushed {
        let items = result?;
        for (alias, item) in aliases.into_iter().zip(items) {
            item.into_revision()?;
            let stage = format!("write:{alias}");
            traces.record(&trace_id, &component, &stage, elapsed);
            observe_stage(&component, &stage, elapsed);
        }
    }
    Ok(())
}

/// Unwrap a fetched input: absent objects start the alias as an empty
/// object (the write phase upserts them).
fn fetched_value(result: Result<StoredObject>) -> Result<Arc<Value>> {
    match result {
        Ok(obj) => Ok(obj.value),
        Err(Error::NotFound(_)) => Ok(Arc::new(Value::Object(serde_json::Map::new()))),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knactor_dxg::spec::FIG6_RETAIL_DXG;
    use knactor_net::loopback::in_process;
    use knactor_net::proto::{ProfileSpec, Response};
    use knactor_net::{BoxFuture, Exchange, Subscription};
    use knactor_rbac::Subject;
    use parking_lot::Mutex;
    use serde_json::json;
    use std::time::Duration;

    /// Test-only exchange over a loopback one that logs every call it
    /// passes on: `Get <store>`, `BatchPut <store> x<items>`, and the
    /// variant name of anything else.
    struct Counted {
        inner: Arc<dyn ExchangeApi>,
        calls: Mutex<Vec<String>>,
    }

    impl Counted {
        /// The calls since the last `take`, sorted.
        fn take(&self) -> Vec<String> {
            let mut calls = std::mem::take(&mut *self.calls.lock());
            calls.sort();
            calls
        }
    }

    impl Exchange for Counted {
        fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
            let call = match &request {
                Request::Get { store, .. } => format!("Get {store}"),
                Request::BatchPut { store, items } => format!("BatchPut {store} x{}", items.len()),
                other => format!("{other:?}")
                    .split([' ', '{'])
                    .next()
                    .unwrap()
                    .to_string(),
            };
            self.calls.lock().push(call);
            self.inner.call(request)
        }

        fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
            self.inner.open(request)
        }
    }

    /// The retail stores and the Fig. 6 Cast over them (C, S and P each
    /// in a store of its own), behind a [`Counted`].
    async fn retail_setup() -> (Arc<Counted>, CastConfig) {
        let (_, _, client) = in_process(Subject::integrator("cast"));
        let api = Arc::new(Counted {
            inner: Arc::new(client),
            calls: Mutex::default(),
        });
        for s in ["checkout/state", "shipping/state", "payment/state"] {
            api.create_store(StoreId::new(s), ProfileSpec::Instant)
                .await
                .unwrap();
        }
        let mut bindings = BTreeMap::new();
        bindings.insert("C".to_string(), CastBinding::correlated("checkout/state"));
        bindings.insert("S".to_string(), CastBinding::correlated("shipping/state"));
        bindings.insert("P".to_string(), CastBinding::correlated("payment/state"));
        let config = CastConfig {
            name: "retail".to_string(),
            dxg: Dxg::parse(FIG6_RETAIL_DXG).unwrap(),
            bindings,
            mode: CastMode::Direct,
        };
        (api, config)
    }

    /// Fill C, S and P for `key` as after Shipping and Payment have
    /// answered, so every Fig. 6 assignment is ready; then clear the log.
    async fn fill_ready(api: &Counted, config: &CastConfig, key: &ObjectKey) {
        let quote = json!({"id": "t", "quote": {"price": 9.0, "currency": "USD"}});
        for (alias, value) in [("C", order()), ("S", quote), ("P", json!({"id": "p"}))] {
            let binding = &config.bindings[alias];
            let key = resolve_key(binding, key);
            api.patch(binding.store.clone(), key, value, true)
                .await
                .unwrap();
        }
        api.take();
    }

    fn order() -> Value {
        json!({
            "order": {
                "items": [{"name": "mug", "qty": 2}, {"name": "pen", "qty": 1}],
                "address": "Soda Hall",
                "cost": 1200.0,
                "totalCost": 1212.5,
                "currency": "USD"
            }
        })
    }

    #[tokio::test]
    async fn activate_once_propagates_order_to_shipping_and_payment() {
        let (api, config) = retail_setup().await;
        let key = ObjectKey::new("order-1");
        fill_ready(&api, &config, &key).await;
        let cast = Cast::new(api.clone());
        cast.activate_once(&config, &key).await.unwrap();

        // On the wire (§3.3 consolidation): one get per binding and one
        // batch_put per target store, 3 items for the 8 assignments.
        assert_eq!(Plan::build(&config.dxg).unwrap().assignment_count(), 8);
        assert_eq!(
            api.take(),
            [
                "BatchPut checkout/state x1",
                "BatchPut payment/state x1",
                "BatchPut shipping/state x1",
                "Get checkout/state",
                "Get payment/state",
                "Get shipping/state",
            ]
        );

        let s = api
            .get(StoreId::new("shipping/state"), ObjectKey::new("order-1"))
            .await
            .unwrap();
        assert_eq!(s.value["addr"], json!("Soda Hall"));
        assert_eq!(s.value["items"], json!(["mug", "pen"]));
        assert_eq!(s.value["method"], json!("air"), "cost 1200 > 1000 → air");

        let p = api
            .get(StoreId::new("payment/state"), ObjectKey::new("order-1"))
            .await
            .unwrap();
        assert_eq!(p.value["amount"], json!(1212.5));
        assert_eq!(p.value["currency"], json!("USD"));

        let c = api
            .get(StoreId::new("checkout/state"), ObjectKey::new("order-1"))
            .await
            .unwrap();
        assert_eq!(c.value["order"]["trackingID"], json!("t"));
        assert_eq!(c.value["order"]["paymentID"], json!("p"));
        assert_eq!(c.value["order"]["shippingCost"], json!(9.0));
    }

    #[tokio::test]
    async fn aliases_sharing_a_store_share_one_batch_put() {
        let (api, mut config) = retail_setup().await;
        // P moves into S's store, under a key of its own.
        let payment = CastBinding::fixed("shipping/state", "pay-o");
        config.bindings.insert("P".to_string(), payment);
        let key = ObjectKey::new("o");
        fill_ready(&api, &config, &key).await;
        let cast = Cast::new(api.clone());
        cast.activate_once(&config, &key).await.unwrap();

        assert_eq!(
            api.take(),
            [
                "BatchPut checkout/state x1",
                "BatchPut shipping/state x2",
                "Get checkout/state",
                "Get shipping/state",
                "Get shipping/state",
            ]
        );
        let p = api
            .get(StoreId::new("shipping/state"), ObjectKey::new("pay-o"))
            .await
            .unwrap();
        assert_eq!(p.value["amount"], json!(1212.5));
    }

    #[tokio::test]
    async fn null_inputs_are_skipped_until_ready() {
        let (api, config) = retail_setup().await;
        api.create(StoreId::new("checkout/state"), ObjectKey::new("o"), order())
            .await
            .unwrap();
        let cast = Cast::new(api.clone());
        cast.activate_once(&config, &ObjectKey::new("o"))
            .await
            .unwrap();

        // S.id / S.quote / P.id are unset → trackingID, paymentID,
        // shippingCost must NOT be written (not even as null).
        let c = api
            .get(StoreId::new("checkout/state"), ObjectKey::new("o"))
            .await
            .unwrap();
        assert!(c.value["order"].get("trackingID").is_none());
        assert!(c.value["order"].get("paymentID").is_none());

        // Shipping's reconciler posts id + quote; Payment posts id.
        api.patch(
            StoreId::new("shipping/state"),
            ObjectKey::new("o"),
            json!({"id": "ship-7", "quote": {"price": 12.5, "currency": "USD"}}),
            false,
        )
        .await
        .unwrap();
        api.patch(
            StoreId::new("payment/state"),
            ObjectKey::new("o"),
            json!({"id": "pay-3"}),
            false,
        )
        .await
        .unwrap();

        cast.activate_once(&config, &ObjectKey::new("o"))
            .await
            .unwrap();
        let c = api
            .get(StoreId::new("checkout/state"), ObjectKey::new("o"))
            .await
            .unwrap();
        assert_eq!(c.value["order"]["trackingID"], json!("ship-7"));
        assert_eq!(c.value["order"]["paymentID"], json!("pay-3"));
        assert_eq!(c.value["order"]["shippingCost"], json!(12.5));
    }

    #[tokio::test]
    async fn spawned_cast_reacts_to_events_and_converges() {
        let (api, config) = retail_setup().await;
        let cast = Cast::new(api.clone());
        let controller = cast.spawn(config).await.unwrap();

        api.create(
            StoreId::new("checkout/state"),
            ObjectKey::new("order-9"),
            order(),
        )
        .await
        .unwrap();

        // Wait until the shipment materializes.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(s) = api
                .get(StoreId::new("shipping/state"), ObjectKey::new("order-9"))
                .await
            {
                if s.value["method"] == json!("air") {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "cast did not propagate in time");
            tokio::time::sleep(Duration::from_millis(10)).await;
        }

        // Convergence: activations settle (no infinite echo loop).
        let mut last = controller.activations();
        let mut stable = 0;
        for _ in 0..100 {
            tokio::time::sleep(Duration::from_millis(10)).await;
            let now = controller.activations();
            if now == last {
                stable += 1;
                if stable >= 10 {
                    break;
                }
            } else {
                stable = 0;
                last = now;
            }
        }
        assert!(
            stable >= 10,
            "cast keeps re-activating: {last} and counting"
        );
        controller.shutdown().await;
    }

    #[tokio::test]
    async fn pushdown_mode_produces_same_result() {
        let (api, mut config) = retail_setup().await;
        config.mode = CastMode::Pushdown {
            udf_name: "retail-dxg".to_string(),
        };
        let key = ObjectKey::new("o2");
        fill_ready(&api, &config, &key).await;
        let cast = Cast::new(api.clone());
        let plan = prepare(&cast.0, &config).await.unwrap();
        assert_eq!(api.take(), ["RegisterUdf"]);
        activation(&cast.0, &config, &plan, &key).await.unwrap();
        // The whole activation is one call (§3.3 pushdown).
        assert_eq!(api.take(), ["ExecuteUdf"]);
        let s = api
            .get(StoreId::new("shipping/state"), ObjectKey::new("o2"))
            .await
            .unwrap();
        assert_eq!(s.value["method"], json!("air"));
        assert_eq!(s.value["addr"], json!("Soda Hall"));
        let c = api
            .get(StoreId::new("checkout/state"), ObjectKey::new("o2"))
            .await
            .unwrap();
        assert_eq!(c.value["order"]["shippingCost"], json!(9.0));
    }

    #[tokio::test]
    async fn reconfigure_swaps_policy_at_runtime() {
        let (api, config) = retail_setup().await;
        let cast = Cast::new(api.clone());
        let controller = cast.spawn(config.clone()).await.unwrap();

        // T2 of Table 1: change the shipment-method threshold from 1000
        // to 2000 — one integrator reconfiguration, no service changes.
        let new_spec = FIG6_RETAIL_DXG.replace("C.order.cost > 1000", "C.order.cost > 2000");
        let new_config = CastConfig {
            dxg: Dxg::parse(&new_spec).unwrap(),
            ..config.clone()
        };
        controller.reconfigure(new_config).await.unwrap();

        api.create(
            StoreId::new("checkout/state"),
            ObjectKey::new("order-x"),
            order(),
        )
        .await
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(s) = api
                .get(StoreId::new("shipping/state"), ObjectKey::new("order-x"))
                .await
            {
                if s.value.get("method").map(|m| !m.is_null()).unwrap_or(false) {
                    // Cost 1200 is now below the 2000 threshold → ground.
                    assert_eq!(s.value["method"], json!("ground"));
                    break;
                }
            }
            assert!(Instant::now() < deadline, "no shipment after reconfigure");
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
        controller.shutdown().await;
    }

    #[tokio::test]
    async fn unbound_alias_rejected_at_spawn() {
        let (api, mut config) = retail_setup().await;
        config.bindings.remove("P");
        let cast = Cast::new(api);
        assert!(matches!(cast.spawn(config).await, Err(Error::Dxg(_))));
    }
}
