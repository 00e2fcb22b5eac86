//! The four workloads: how each is set up over real loopback TCP, what its
//! watcher follows, when it is quiescent, and the oracle that checks it.

use crate::driver::{Api, Conn, Flows, Ledger, CONNS};
use crate::gen::{kv_key, order_key, OpGen, Workload, BATCH, KV_KEYS, KV_STORE};
use knactor_apps::{retail, smarthome};
use knactor_core::Composer;
use knactor_logstore::{LogExchange, TailEvent};
use knactor_net::{ExchangeApi, ExchangeServer, LoopbackClient, TcpClient};
use knactor_rbac::Subject;
use knactor_store::{DataExchange, EngineProfile, ObjectStore, PutItem};
use knactor_types::{ObjectKey, Result, Revision, StoreId, Value};
use serde_json::json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::task::JoinHandle;

/// The quote the Shipping reconciler posts for a two-item order, and the
/// fixed USD→EUR rate of the exchange's `currency_convert`.
const QUOTE_USD: f64 = 9.0;
const EUR_PER_USD: f64 = 0.92;

enum App {
    None,
    Retail(retail::knactor_app::RetailApp),
    Home(smarthome::knactor_app::SmartHomeApp),
}

impl App {
    fn composer(&self) -> Option<&Composer> {
        match self {
            App::None => None,
            App::Retail(app) => Some(&app.composer),
            App::Home(app) => Some(&app.composer),
        }
    }
}

/// A workload set up and ready for load.
pub struct Env {
    pub workload: Workload,
    pub conns: Vec<Conn>,
    pub flows: Arc<Flows>,
    observer: Api,
    pub object: Arc<DataExchange>,
    pub log: Arc<LogExchange>,
    server: ExchangeServer,
    app: App,
    watcher: JoinHandle<()>,
    /// Where kv-durable keeps its WAL.
    wal_dir: PathBuf,
    /// Revision of the kv store once preloaded.
    preload_revision: u64,
}

async fn connect(server: &ExchangeServer, subject: Subject) -> Result<Api> {
    Ok(Arc::new(
        TcpClient::connect(server.local_addr(), subject).await?,
    ))
}

fn kv_profile(workload: Workload, wal_dir: &Path) -> EngineProfile {
    if workload == Workload::KvDurable {
        EngineProfile::durable(wal_dir, "kv")
    } else {
        EngineProfile::instant()
    }
}

/// The stores a workload's ops touch, on fresh exchanges with no app and no
/// server: what kv-wire / kv-durable serve, and what the traced unrolled
/// path and the layer probes run against.
pub async fn bare_exchange(
    workload: Workload,
    wal_dir: &Path,
) -> Result<(Arc<DataExchange>, Arc<LogExchange>)> {
    let object = Arc::new(DataExchange::new());
    let log = Arc::new(LogExchange::new());
    match workload {
        Workload::KvWire | Workload::KvDurable => {
            std::fs::create_dir_all(wal_dir)?;
            object.create_store(KV_STORE, kv_profile(workload, wal_dir))?;
            let loader = LoopbackClient::new(
                Arc::clone(&object),
                Arc::clone(&log),
                Subject::operator("bench-preload"),
            );
            preload_kv(&loader).await?;
        }
        Workload::RetailOrders => {
            object.create_store("checkout/state", EngineProfile::instant())?;
        }
        Workload::HomeTelemetry => {
            for device in ["house", "lamp", "motion"] {
                // The app gives its config stores the modelled Redis profile.
                object
                    .create_store(
                        StoreId::new(format!("{device}/config")),
                        EngineProfile::redis(),
                    )?
                    .create(ObjectKey::new("state"), json!({"brightness": 0.0}))?;
                log.create_store(StoreId::new(format!("{device}/telemetry")))?;
            }
        }
    }
    Ok((object, log))
}

async fn preload_kv(api: &dyn ExchangeApi) -> Result<()> {
    for chunk in (0..KV_KEYS).collect::<Vec<_>>().chunks(BATCH) {
        let items = chunk
            .iter()
            .map(|&rank| PutItem {
                key: kv_key(rank),
                value: json!({"seq": 0, "pad": ""}),
                upsert: true,
            })
            .collect();
        api.batch_put(StoreId::new(KV_STORE), items).await?;
    }
    Ok(())
}

fn order_complete(value: &Value) -> bool {
    let order = &value["order"];
    !order["paymentID"].is_null()
        && !order["trackingID"].is_null()
        && !order["shippingCost"].is_null()
}

pub fn order_id(key: &str) -> Option<u64> {
    key.strip_prefix("order-")?.parse().ok()
}

/// Bind a server over fresh benchmark-owned exchanges, deploy the
/// workload's app (if any), preload, start the watcher, wait quiescent.
pub async fn setup(workload: Workload, seed: u64, wal_dir: &Path) -> Result<Env> {
    let object = Arc::new(DataExchange::new());
    let log = Arc::new(LogExchange::new());
    let mut preload_revision = 0;
    if matches!(workload, Workload::KvWire | Workload::KvDurable) {
        std::fs::create_dir_all(wal_dir)?;
        object.create_store(KV_STORE, kv_profile(workload, wal_dir))?;
    }
    let server = ExchangeServer::bind("127.0.0.1:0", Arc::clone(&object), Arc::clone(&log)).await?;
    let observer = connect(&server, Subject::operator("bench-observer")).await?;
    let flows = Arc::new(Flows::default());

    let (app, watcher) = match workload {
        Workload::KvWire | Workload::KvDurable => {
            preload_kv(&*observer).await?;
            preload_revision = object.store(&StoreId::new(KV_STORE))?.revision().0;
            let mut events = observer
                .watch(StoreId::new(KV_STORE), Revision(preload_revision))
                .await?;
            let flows = Arc::clone(&flows);
            let watcher = tokio::spawn(async move {
                while let Some(event) = events.recv().await {
                    if let Some(seq) = event.value["seq"].as_u64() {
                        flows.complete(seq, Instant::now());
                    }
                }
            });
            (App::None, watcher)
        }
        Workload::RetailOrders => {
            let api = connect(&server, Subject::integrator("retail")).await?;
            let app = retail::knactor_app::deploy(api, Default::default()).await?;
            let mut events = observer
                .watch(StoreId::new("checkout/state"), Revision::ZERO)
                .await?;
            let flows = Arc::clone(&flows);
            let watcher = tokio::spawn(async move {
                while let Some(event) = events.recv().await {
                    if order_complete(&event.value) {
                        if let Some(id) = order_id(event.key.as_str()) {
                            flows.complete(id, Instant::now());
                        }
                    }
                }
            });
            (App::Retail(app), watcher)
        }
        Workload::HomeTelemetry => {
            let api = connect(&server, Subject::integrator("home")).await?;
            let app = smarthome::knactor_app::deploy(api).await?;
            let mut tail = observer
                .log_tail(StoreId::new("house/telemetry"), 0)
                .await?;
            let flows = Arc::clone(&flows);
            let watcher = tokio::spawn(async move {
                while let Some(event) = tail.recv().await {
                    if let TailEvent::Record(record) = event {
                        if let Some(id) = record.fields["probe"].as_u64() {
                            flows.complete(id, Instant::now());
                        }
                    }
                }
            });
            (App::Home(app), watcher)
        }
    };

    let mut conns = Vec::new();
    for stream in 0..CONNS {
        conns.push(Conn {
            api: connect(&server, Subject::operator(format!("bench-gen-{stream}"))).await?,
            gen: OpGen::new(workload, seed, stream),
            ledger: Ledger::default(),
        });
    }
    let env = Env {
        workload,
        conns,
        flows,
        observer,
        object,
        log,
        server,
        app,
        watcher,
        wal_dir: wal_dir.to_path_buf(),
        preload_revision,
    };
    env.quiesce().await;
    Ok(env)
}

/// What is left of an [`Env`] once its processes are stopped.
struct Stopped {
    ledgers: Vec<Ledger>,
    object: Arc<DataExchange>,
    log: Arc<LogExchange>,
}

/// What `quiesce` saw.
pub struct Drain {
    pub seconds: f64,
    /// Commits and appends the program still made after the load stopped.
    pub backlog: u64,
}

impl Env {
    /// Every commit and append so far, over all stores: the outside view of
    /// "is the program still working".
    pub fn writes_so_far(&self) -> u64 {
        let objects: u64 = self
            .object
            .store_ids()
            .iter()
            .filter_map(|id| self.object.store(id).ok())
            .map(|s| s.revision().0)
            .sum();
        let records: u64 = self
            .log
            .store_ids()
            .iter()
            .filter_map(|id| self.log.store(id).ok())
            .map(|s| s.last_seq())
            .sum();
        objects + records
    }

    /// Wait until the program has stopped writing: drain every integrator
    /// (a barrier over what they already hold), then require the write
    /// count to stand still and no flow to be open. Gives up after 60 s.
    pub async fn quiesce(&self) -> Drain {
        let start = Instant::now();
        let before = self.writes_so_far();
        let mut last = before;
        let mut still = 0;
        let mut settled_at = start;
        while still < 3 && start.elapsed() < Duration::from_secs(60) {
            if let Some(composer) = self.app.composer() {
                let _ = composer.drain_all().await;
            }
            tokio::time::sleep(Duration::from_millis(5)).await;
            let now = self.writes_so_far();
            if now == last && self.flows.open_count() == 0 {
                still += 1;
            } else {
                still = 0;
                settled_at = Instant::now();
            }
            last = now;
        }
        Drain {
            seconds: settled_at.duration_since(start).as_secs_f64(),
            backlog: last - before,
        }
    }

    /// Stop the watcher, the app and the server; keep what the oracle reads.
    async fn stop(self) -> Stopped {
        self.watcher.abort();
        let _ = self.watcher.await;
        match self.app {
            App::None => {}
            App::Retail(app) => app.shutdown().await,
            App::Home(app) => app.shutdown().await,
        }
        let ledgers = self.conns.into_iter().map(|c| c.ledger).collect();
        drop(self.observer);
        self.server.shutdown().await;
        Stopped {
            ledgers,
            object: self.object,
            log: self.log,
        }
    }

    pub async fn teardown(self) {
        let _ = self.stop().await;
    }

    /// Stop everything, then check what the program left behind against
    /// what the generators were acknowledged. Returns one line per fault.
    pub async fn check(self) -> Vec<String> {
        let (workload, preload_revision) = (self.workload, self.preload_revision);
        let wal_dir = self.wal_dir.clone();
        let Stopped {
            ledgers,
            object,
            log,
        } = self.stop().await;
        match workload {
            Workload::KvWire | Workload::KvDurable => {
                let store = object
                    .store(&StoreId::new(KV_STORE))
                    .expect("kv store exists");
                let mut faults = check_kv(&store, &ledgers, preload_revision);
                if workload == Workload::KvDurable {
                    let before = kv_state(&store);
                    drop(store);
                    drop(object);
                    faults.extend(check_reopened(&wal_dir, before));
                }
                faults
            }
            Workload::RetailOrders => check_retail(&object, &ledgers),
            Workload::HomeTelemetry => check_home(&object, &log, &ledgers),
        }
    }
}

/// `(revision, key → seq)` of the kv store.
fn kv_state(store: &ObjectStore) -> (u64, HashMap<String, u64>) {
    let (objects, revision) = store.list();
    let seqs = objects
        .iter()
        .map(|o| {
            (
                o.key.as_str().to_string(),
                o.value["seq"].as_u64().unwrap_or(u64::MAX),
            )
        })
        .collect();
    (revision.0, seqs)
}

/// Every key holds the last write one of the connections issued for it
/// (or the preload), and the store committed exactly the acked writes.
fn check_kv(store: &ObjectStore, ledgers: &[Ledger], preload_revision: u64) -> Vec<String> {
    let mut faults = Vec::new();
    let (revision, seqs) = kv_state(store);
    let acked: u64 = ledgers.iter().map(|l| l.item_writes).sum();
    if revision != preload_revision + acked {
        faults.push(format!(
            "kv revision {revision} != preload {preload_revision} + {acked} acked writes"
        ));
    }
    if seqs.len() != KV_KEYS {
        faults.push(format!("kv store holds {} keys, not {KV_KEYS}", seqs.len()));
    }
    for rank in 0..KV_KEYS {
        let allowed: Vec<u64> = ledgers
            .iter()
            .filter_map(|l| l.last_write.get(&(rank as u32)).copied())
            .collect();
        let got = seqs.get(kv_key(rank).as_str()).copied();
        let fine = match got {
            Some(seq) if allowed.is_empty() => seq == 0,
            Some(seq) => allowed.contains(&seq),
            None => false,
        };
        if !fine {
            faults.push(format!(
                "key {}: holds {got:?}, last writes were {allowed:?}",
                kv_key(rank)
            ));
        }
    }
    faults
}

/// kv-durable: a store reopened from nothing but the WAL directory holds
/// every acknowledged write.
fn check_reopened(wal_dir: &Path, before: (u64, HashMap<String, u64>)) -> Vec<String> {
    let profile = EngineProfile::durable(wal_dir, "kv");
    match ObjectStore::open(StoreId::new(KV_STORE), profile) {
        Err(e) => vec![format!("reopening the WAL failed: {e}")],
        Ok(reopened) => {
            let after = kv_state(&reopened);
            if after == before {
                Vec::new()
            } else {
                vec![format!(
                    "reopened store differs: revision {} vs {} before shutdown, {} keys differ",
                    after.0,
                    before.0,
                    before
                        .1
                        .iter()
                        .filter(|(k, v)| after.1.get(*k) != Some(v))
                        .count()
                )]
            }
        }
    }
}

/// Every acknowledged order exists once and completed with the ids and the
/// converted shipping cost the composition promises.
fn check_retail(object: &DataExchange, ledgers: &[Ledger]) -> Vec<String> {
    let mut faults = Vec::new();
    let store = object
        .store(&StoreId::new("checkout/state"))
        .expect("checkout store exists");
    let (objects, _) = store.list();
    let orders: Vec<_> = ledgers.iter().flat_map(|l| l.orders.iter()).collect();
    if objects.len() != orders.len() {
        faults.push(format!(
            "checkout holds {} orders, {} were acknowledged",
            objects.len(),
            orders.len()
        ));
    }
    for &&(id, eur) in &orders {
        let key = order_key(id);
        let Ok(object) = store.get(&key) else {
            faults.push(format!("{key} is missing"));
            continue;
        };
        let order = &object.value["order"];
        let want_cost = if eur {
            QUOTE_USD * EUR_PER_USD
        } else {
            QUOTE_USD
        };
        let cost_ok = order["shippingCost"]
            .as_f64()
            .is_some_and(|c| (c - want_cost).abs() < 1e-9);
        if order["paymentID"] != json!(format!("pay-{key}"))
            || order["trackingID"] != json!(format!("track-{key}"))
            || !cost_ok
        {
            faults.push(format!("{key} completed wrong: {order}"));
        }
    }
    faults
}

/// `house/telemetry` is `motion/telemetry` renamed, record for record and
/// in order; the lamp log holds exactly the acknowledged records; and the
/// rolled-up `house/config.energy` is the lamp log's kWh sum.
fn check_home(object: &DataExchange, log: &LogExchange, ledgers: &[Ledger]) -> Vec<String> {
    let mut faults = Vec::new();
    let read = |store: &str| {
        log.store(&StoreId::new(store))
            .map(|s| s.read_all())
            .unwrap_or_default()
    };
    let motion: Vec<u64> = read("motion/telemetry")
        .iter()
        .filter_map(|r| r.fields["probe"].as_u64())
        .collect();
    let house = read("house/telemetry");
    let arrived: Vec<u64> = house
        .iter()
        .filter_map(|r| r.fields["probe"].as_u64())
        .collect();
    if motion != arrived {
        faults.push(format!(
            "house/telemetry got {} records, motion/telemetry holds {} (or their order differs)",
            arrived.len(),
            motion.len()
        ));
    }
    if house
        .iter()
        .any(|r| r.fields["motion"].is_null() || !r.fields["triggered"].is_null())
    {
        faults.push("a house/telemetry record is not renamed triggered→motion".to_string());
    }
    let mut acked: Vec<u64> = ledgers.iter().flat_map(|l| l.motions.clone()).collect();
    let mut logged = motion;
    acked.sort_unstable();
    logged.sort_unstable();
    if acked != logged {
        faults.push(format!(
            "motion/telemetry holds {} records, {} were acknowledged",
            logged.len(),
            acked.len()
        ));
    }

    let lamp = read("lamp/telemetry");
    let load: Vec<_> = lamp
        .iter()
        .filter(|r| r.fields["kind"] == json!("load"))
        .collect();
    let centi = |kwh: &Value| (kwh.as_f64().unwrap_or(f64::NAN) * 100.0).round() as u64;
    let (want_records, want_centi) = ledgers
        .iter()
        .fold((0, 0), |(r, c), l| (r + l.lamp_records, c + l.centi_kwh));
    let got_centi: u64 = load.iter().map(|r| centi(&r.fields["kwh"])).sum();
    if load.len() as u64 != want_records || got_centi != want_centi {
        faults.push(format!(
            "lamp/telemetry holds {} load records summing {got_centi} ckWh, acknowledged were {want_records} summing {want_centi}",
            load.len()
        ));
    }
    let total: f64 = lamp.iter().filter_map(|r| r.fields["kwh"].as_f64()).sum();
    let energy = object
        .store(&StoreId::new("house/config"))
        .and_then(|s| s.get(&ObjectKey::new("state")))
        .ok()
        .and_then(|o| o.value["energy"].as_f64());
    if !energy.is_some_and(|e| (e - total).abs() <= 1e-6 * total.max(1.0)) {
        faults.push(format!(
            "house/config.energy is {energy:?}, the lamp log sums to {total}"
        ));
    }
    faults
}
