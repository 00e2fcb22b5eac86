//! The smart home, the Knactor way (Fig. 4).
//!
//! Three knactors, each with **two stores**: an Object store on the
//! Object exchange (configuration: `brightness`, `sensitivity`,
//! `targetBrightness`) and a Log store on the Log exchange (telemetry:
//! motion readings, energy readings).
//!
//! Composition — all of it outside the devices:
//!
//! * **Cast** (`assets/smarthome_dxg.yaml`): `L.brightness` follows
//!   `H.targetBrightness` when `M.triggered`, else 0; `H.motion` mirrors
//!   `M.triggered`.
//! * **Sync (stream)**: Motion's telemetry flows into House's log with
//!   `triggered` renamed to `motion` (the Fig. 4 rename).
//! * **Sync (snapshot)**: Lamp's energy log rolls up into the House
//!   object store's `energy` field (sum of kWh).
//! * **Continuous (windowed)**: Lamp's energy log is summed per tumbling
//!   window of [`ENERGY_WINDOW`] records into the `house/analytics`
//!   object store — the rolling "energy this window" dashboard value.
//!
//! Access control: the exchange is configured so House's integrator may
//! not write the Lamp's store during sleep hours (§3.3's access-control
//! example) — see [`sleep_hours_policy`].

use crate::smarthome::lamp_kwh;
use knactor_core::{
    ApplyReport, CastBinding, CastMode, Composer, Composition, ContinuousConfig, FnReconciler,
    Knactor, ReconcilerCtx, Runtime, SyncConfig, SyncDest, SyncMode,
};
use knactor_dxg::Dxg;
use knactor_logstore::WindowSpec;
use knactor_net::proto::{OpSpec, ProfileSpec, QuerySpec};
use knactor_net::ExchangeApi;
use knactor_rbac::{AccessController, Condition, Role, RoleBinding, Rule, Subject, Verb};
use knactor_store::WatchEvent;
use knactor_types::{FieldPath, ObjectKey, Result, StoreId, Value};
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The singleton object key each device keeps its state under.
pub const STATE_KEY: &str = "state";

/// Records per tumbling window of the continuous energy query.
pub const ENERGY_WINDOW: usize = 32;

/// Object store holding continuous-query results.
pub const ANALYTICS_STORE: &str = "house/analytics";

/// Key of the rolling windowed-energy result.
pub const ENERGY_WINDOW_KEY: &str = "energy-window";

/// A deployed Knactor smart home.
pub struct SmartHomeApp {
    pub runtime: Runtime,
    pub composer: Composer,
    api: Arc<dyn ExchangeApi>,
}

/// The Fig. 4 DXG, loaded from the shipped asset.
pub fn smarthome_dxg() -> Result<Dxg> {
    let text = std::fs::read_to_string(crate::crate_file("assets/smarthome_dxg.yaml"))?;
    Dxg::parse(&text)
}

fn bindings() -> BTreeMap<String, CastBinding> {
    let mut b = BTreeMap::new();
    b.insert(
        "H".to_string(),
        CastBinding::fixed("house/config", STATE_KEY),
    );
    b.insert(
        "M".to_string(),
        CastBinding::fixed("motion/config", STATE_KEY),
    );
    b.insert(
        "L".to_string(),
        CastBinding::fixed("lamp/config", STATE_KEY),
    );
    b
}

/// RBAC policy implementing "House may not touch the Lamp during
/// user-defined sleep hours" (22:00–07:00). Applied by the example and
/// the access-control tests; the exchange's logical clock decides.
pub fn sleep_hours_policy(ac: &mut AccessController) {
    ac.always_enforce = true;
    // Every device's reconciler owns its stores.
    for dev in ["house", "motion", "lamp"] {
        ac.add_role(Role::full_access(
            format!("{dev}-owner"),
            format!("{dev}/*"),
        ));
        ac.bind(RoleBinding::new(
            Subject::reconciler(dev),
            format!("{dev}-owner"),
        ));
    }
    // The integrator reads everything, writes House freely, but writes
    // the Lamp only outside sleep hours.
    ac.add_role(
        Role::new("home-integrator")
            .rule(Rule::on("motion/*").verbs([Verb::Get, Verb::List, Verb::Watch]))
            .rule(Rule::on("house/*").all_verbs())
            .rule(
                Rule::on("lamp/*")
                    .verbs([
                        Verb::Get,
                        Verb::List,
                        Verb::Watch,
                        Verb::Update,
                        Verb::Create,
                    ])
                    .when(Condition::OutsideMinutes {
                        start: 22 * 60,
                        end: 7 * 60,
                    }),
            ),
    );
    ac.bind(RoleBinding::new(
        Subject::integrator("home"),
        "home-integrator",
    ));
}

fn build_knactors() -> Vec<Knactor> {
    let mut knactors = Vec::new();

    // Lamp: applying a brightness change consumes energy; the reconciler
    // reports it to the lamp's own telemetry log.
    knactors.push(
        Knactor::builder("lamp")
            .object_store("config")
            .log_store("telemetry")
            .reconciler(FnReconciler::new(
                |ctx: ReconcilerCtx, event: WatchEvent| async move {
                    if let Some(b) = event.value.get("brightness").and_then(Value::as_f64) {
                        let log = ctx.log_stores.first().cloned().expect("lamp has telemetry");
                        ctx.emit(&log, json!({"kind": "energy", "kwh": lamp_kwh(b)}))
                            .await?;
                    }
                    Ok(())
                },
            ))
            .build(),
    );

    // Motion: pure sensor — state arrives from the device driver (the
    // test/example writes it); no reconcile behaviour needed.
    knactors.push(
        Knactor::builder("motion")
            .object_store("config")
            .log_store("telemetry")
            .build(),
    );

    // House: the hub; its state is filled by the integrators.
    knactors.push(
        Knactor::builder("house")
            .object_store("config")
            .log_store("telemetry")
            .build(),
    );
    knactors
}

/// Deploy the app with open access (tests drive the clock separately).
pub async fn deploy(api: Arc<dyn ExchangeApi>) -> Result<SmartHomeApp> {
    let runtime = Runtime::new();
    for knactor in build_knactors() {
        for store in &knactor.object_stores {
            api.create_store(store.clone(), ProfileSpec::Redis).await?;
        }
        for store in &knactor.log_stores {
            api.log_create_store(store.clone()).await?;
        }
        runtime
            .deploy_pre_externalized(knactor, Arc::clone(&api))
            .await?;
    }

    // Seed device state.
    for dev in ["house", "motion", "lamp"] {
        let initial = match dev {
            "house" => json!({"targetBrightness": 8.0}),
            "motion" => json!({"triggered": false, "sensitivity": 5}),
            _ => json!({"brightness": 0.0}),
        };
        api.create(
            StoreId::new(format!("{dev}/config")),
            ObjectKey::new(STATE_KEY),
            initial,
        )
        .await?;
    }

    // Results of continuous queries land here, beside the config stores.
    api.create_store(StoreId::new(ANALYTICS_STORE), ProfileSpec::Instant)
        .await?;

    // The whole home — Cast over the three config stores plus both Sync
    // pipelines and the windowed energy query — is one declarative
    // composition; one apply runs it all.
    let composer = Composer::new("home", Arc::clone(&api));
    composer.supervise(&runtime);
    composer
        .apply(smarthome_composition(smarthome_dxg()?))
        .await?;

    Ok(SmartHomeApp {
        runtime,
        composer,
        api,
    })
}

/// The full declarative composition of Fig. 4: the cast DXG plus the
/// stream-rename and snapshot-rollup Sync pipelines and the continuous
/// windowed-energy query.
pub fn smarthome_composition(dxg: Dxg) -> Composition {
    Composition::new()
        .with_cast(dxg, bindings(), CastMode::Direct)
        // Sync 1 (stream): motion telemetry → house telemetry, renamed.
        .with_sync(SyncConfig {
            name: "motion-to-house".to_string(),
            source: StoreId::new("motion/telemetry"),
            dest: SyncDest::Log(StoreId::new("house/telemetry")),
            query: QuerySpec {
                ops: vec![OpSpec::Rename {
                    from: "triggered".into(),
                    to: "motion".into(),
                }],
            },
            mode: SyncMode::Stream,
        })
        // Sync 2 (snapshot): lamp energy log → house `energy` rollup.
        .with_sync(SyncConfig {
            name: "energy-rollup".to_string(),
            source: StoreId::new("lamp/telemetry"),
            dest: SyncDest::ObjectField {
                store: StoreId::new("house/config"),
                key: ObjectKey::new(STATE_KEY),
                field: FieldPath::parse("energy").expect("static path"),
            },
            query: QuerySpec {
                ops: vec![OpSpec::Aggregate {
                    group_by: None,
                    agg: "sum".into(),
                    field: Some("kwh".into()),
                    as_field: "total".into(),
                }],
            },
            mode: SyncMode::Snapshot,
        })
        // Continuous: lamp energy per tumbling window → analytics store.
        .with_continuous(ContinuousConfig {
            name: "energy-window".to_string(),
            source: StoreId::new("lamp/telemetry"),
            query: QuerySpec {
                ops: vec![OpSpec::Aggregate {
                    group_by: None,
                    agg: "sum".into(),
                    field: Some("kwh".into()),
                    as_field: "window_kwh".into(),
                }],
            },
            window: WindowSpec::tumbling(ENERGY_WINDOW),
            dest_store: StoreId::new(ANALYTICS_STORE),
            dest_key: ObjectKey::new(ENERGY_WINDOW_KEY),
        })
}

impl SmartHomeApp {
    /// Device driver: the motion sensor fires (or clears).
    pub async fn sense_motion(&self, triggered: bool) -> Result<()> {
        self.api
            .patch(
                StoreId::new("motion/config"),
                ObjectKey::new(STATE_KEY),
                json!({"triggered": triggered}),
                false,
            )
            .await?;
        self.api
            .log_append(
                StoreId::new("motion/telemetry"),
                json!({"triggered": triggered}),
            )
            .await?;
        Ok(())
    }

    /// Current lamp brightness.
    pub async fn lamp_brightness(&self) -> Result<f64> {
        let obj = self
            .api
            .get(StoreId::new("lamp/config"), ObjectKey::new(STATE_KEY))
            .await?;
        Ok(obj.value["brightness"].as_f64().unwrap_or(0.0))
    }

    /// The latest closed energy window from the continuous query, if any
    /// window has closed yet: `(window index, summed kWh, records_total)`.
    pub async fn energy_window(&self) -> Result<Option<(u64, f64, u64)>> {
        let obj = match self
            .api
            .get(
                StoreId::new(ANALYTICS_STORE),
                ObjectKey::new(ENERGY_WINDOW_KEY),
            )
            .await
        {
            Ok(obj) => obj,
            Err(_) => return Ok(None),
        };
        let v = &obj.value;
        let (Some(w), Some(total)) = (v["window"].as_u64(), v["records_total"].as_u64()) else {
            return Ok(None);
        };
        let kwh = v["rows"][0]["window_kwh"].as_f64().unwrap_or(0.0);
        Ok(Some((w, kwh, total)))
    }

    /// House's rolled-up energy total, if computed yet.
    pub async fn house_energy(&self) -> Result<Option<f64>> {
        let obj = self
            .api
            .get(StoreId::new("house/config"), ObjectKey::new(STATE_KEY))
            .await?;
        Ok(obj.value.get("energy").and_then(Value::as_f64))
    }

    /// Wait until the lamp reaches `expected` brightness.
    pub async fn wait_for_brightness(&self, expected: f64, timeout: Duration) -> Result<()> {
        let deadline = tokio::time::Instant::now() + timeout;
        loop {
            if (self.lamp_brightness().await? - expected).abs() < 1e-9 {
                return Ok(());
            }
            if tokio::time::Instant::now() >= deadline {
                return Err(knactor_types::Error::Timeout(format!(
                    "lamp never reached brightness {expected}"
                )));
            }
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
    }

    pub fn api(&self) -> &Arc<dyn ExchangeApi> {
        &self.api
    }

    /// Live-reconfigure the home (e.g. a new automation DXG): one
    /// `Composer::apply`, disturbing only the edges that changed.
    pub async fn apply_composition(&self, composition: Composition) -> Result<ApplyReport> {
        self.composer.apply(composition).await
    }

    pub async fn shutdown(self) {
        self.composer.shutdown_all().await;
        self.runtime.shutdown().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knactor_net::loopback::in_process;

    #[tokio::test]
    async fn motion_turns_lamp_on_and_off() {
        let (_, _, client) = in_process(Subject::integrator("home"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let app = deploy(Arc::clone(&api)).await.unwrap();

        app.sense_motion(true).await.unwrap();
        app.wait_for_brightness(8.0, Duration::from_secs(5))
            .await
            .unwrap();

        app.sense_motion(false).await.unwrap();
        app.wait_for_brightness(0.0, Duration::from_secs(5))
            .await
            .unwrap();
        app.shutdown().await;
    }

    #[tokio::test]
    async fn telemetry_flows_renamed_into_house() {
        let (_, _, client) = in_process(Subject::integrator("home"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let app = deploy(Arc::clone(&api)).await.unwrap();

        app.sense_motion(true).await.unwrap();
        let deadline = tokio::time::Instant::now() + Duration::from_secs(5);
        loop {
            let recs = api
                .log_read(StoreId::new("house/telemetry"), 0)
                .await
                .unwrap();
            if !recs.is_empty() {
                assert_eq!(recs[0].fields, json!({"motion": true}));
                break;
            }
            assert!(
                tokio::time::Instant::now() < deadline,
                "rename sync never ran"
            );
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
        app.shutdown().await;
    }

    #[tokio::test]
    async fn energy_rolls_up_into_house_state() {
        let (_, _, client) = in_process(Subject::integrator("home"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let app = deploy(Arc::clone(&api)).await.unwrap();

        app.sense_motion(true).await.unwrap();
        app.wait_for_brightness(8.0, Duration::from_secs(5))
            .await
            .unwrap();

        let deadline = tokio::time::Instant::now() + Duration::from_secs(5);
        loop {
            // The first reading may be the brightness=0 activation's zero
            // accrual; keep waiting for the motion-triggered energy.
            if app.house_energy().await.unwrap().is_some_and(|e| e > 0.0) {
                break;
            }
            assert!(
                tokio::time::Instant::now() < deadline,
                "energy rollup never ran"
            );
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
        app.shutdown().await;
    }

    #[tokio::test]
    async fn windowed_energy_survives_sustained_batch_ingest() {
        let (_, _, client) = in_process(Subject::integrator("home"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let app = deploy(Arc::clone(&api)).await.unwrap();

        // Sustained telemetry at volume: batched appends racing the
        // continuous query's tail (and the store's columnar re-encode +
        // rotation underneath).
        let total: u64 = 4096;
        let batch_size: u64 = 64;
        let mut appended = 0u64;
        while appended < total {
            let batch: Vec<Value> = (0..batch_size)
                .map(|j| json!({"kind": "energy", "kwh": 0.125, "i": appended + j}))
                .collect();
            api.log_append_batch(StoreId::new("lamp/telemetry"), batch)
                .await
                .unwrap();
            appended += batch_size;
        }

        // Every record lands in exactly one window: after the barrier the
        // destination must account for all `total` records, none counted
        // twice (records_total is cumulative over *closed* windows) and
        // none missed (the last window ends exactly at seq `total`).
        let deadline = tokio::time::Instant::now() + Duration::from_secs(10);
        loop {
            app.composer.drain_all().await.unwrap();
            let window = app.energy_window().await.unwrap();
            if let Some((index, kwh, records_total)) = window {
                if records_total == total {
                    assert_eq!(index, total / ENERGY_WINDOW as u64 - 1);
                    assert!((kwh - 0.125 * ENERGY_WINDOW as f64).abs() < 1e-9);
                    break;
                }
                assert!(
                    records_total < total,
                    "double-counted: {records_total} > {total}"
                );
            }
            assert!(
                tokio::time::Instant::now() < deadline,
                "window result never caught up: {window:?}"
            );
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
        app.shutdown().await;
    }

    #[tokio::test]
    async fn sleep_hours_block_lamp_writes() {
        let (object, _, client) = in_process(Subject::integrator("home"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let app = deploy(Arc::clone(&api)).await.unwrap();
        object.configure_access(sleep_hours_policy);

        // The device itself writes through its own store (the app-level
        // client is the integrator, which may not write motion state).
        let motion = object.store(&StoreId::new("motion/config")).unwrap();
        let fire = |triggered: bool| {
            motion
                .patch(
                    &ObjectKey::new(STATE_KEY),
                    &json!({"triggered": triggered}),
                    false,
                )
                .unwrap();
        };

        // 23:30 — inside sleep hours: the Cast cannot write the lamp.
        object.set_access_context(knactor_rbac::AccessContext::at(23, 30));
        fire(true);
        tokio::time::sleep(Duration::from_millis(100)).await;
        // Lamp unchanged (read via the raw store — owner's view).
        let lamp = object.store(&StoreId::new("lamp/config")).unwrap();
        assert_eq!(
            lamp.get(&ObjectKey::new(STATE_KEY)).unwrap().value["brightness"],
            json!(0.0)
        );

        // 08:00 — awake: a fresh motion event now propagates.
        object.set_access_context(knactor_rbac::AccessContext::at(8, 0));
        fire(false);
        fire(true);
        let deadline = tokio::time::Instant::now() + Duration::from_secs(5);
        loop {
            let v = lamp.get(&ObjectKey::new(STATE_KEY)).unwrap().value["brightness"].clone();
            if v == json!(8.0) {
                break;
            }
            assert!(
                tokio::time::Instant::now() < deadline,
                "lamp never lit after wake"
            );
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
        app.shutdown().await;
    }
}
