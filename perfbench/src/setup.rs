//! Builds the system under test for one workload, timing each stage.

use std::sync::Arc;
use std::time::{Duration, Instant};

use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig, MethodSpec};
use memcom_models::{ModelConfig, RecModel};
use memcom_net::{NetClient, NetClientConfig, NetMetricsSnapshot, NetServer, NetServerConfig};
use memcom_serve::{
    EmbedBatch, RankNetBackend, Router, RouterHandle, ScoreBatch, ServeStats, ShardedStore,
    TelemetryConfig, LOOKUP_BACKEND,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::{serve_config, Front, Op, Spec};

/// The served model's name.
pub const MODEL: &str = "bench";
/// Model weights are fixed; only the request stream depends on the
/// workload seed.
const MODEL_SEED: u64 = 20_220_401;
const RANKNET: &str = "ranknet";

pub enum Model {
    Table(Box<MemCom>),
    Ranker(RecModel),
}

impl Model {
    pub fn emb(&self) -> &dyn EmbeddingCompressor {
        match self {
            Model::Table(m) => m.as_ref(),
            Model::Ranker(r) => r.embedding(),
        }
    }
}

pub enum Served {
    Wire {
        server: NetServer,
        client: NetClient,
    },
    InProc(Router),
}

/// Start and end of each set-up stage: model build, store build,
/// server start (through the first answered request).
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub stages: [(Instant, Instant); 3],
}

pub const STAGE_NAMES: [&str; 3] = [
    "setup.model_build",
    "setup.store_build",
    "setup.server_start",
];

impl SetupTimes {
    pub fn stage(&self, k: usize) -> Duration {
        self.stages[k].1 - self.stages[k].0
    }

    pub fn total(&self) -> Duration {
        (0..3).map(|k| self.stage(k)).sum()
    }
}

pub struct System {
    pub spec: Spec,
    pub model: Model,
    pub backend: Option<Arc<RankNetBackend>>,
    pub served: Served,
    pub times: SetupTimes,
    /// Rows the set-up probe sent through the router.
    pub probe_rows: u64,
}

/// What the server reported when it was shut down.
pub struct Shutdown {
    pub stats: ServeStats,
    pub net: Option<NetMetricsSnapshot>,
}

impl System {
    /// Builds the model, builds and registers its int8 store, starts the
    /// router (and, for wire workloads, the loopback server and one
    /// client connection), and answers one probe request: everything up
    /// to the first timed request.
    pub fn build(spec: &Spec, telemetry: TelemetryConfig) -> System {
        let t_model = Instant::now();
        let (model, backend) = match spec.op {
            Op::Lookup => {
                let mut rng = StdRng::seed_from_u64(MODEL_SEED);
                let config = MemComConfig::new(spec.vocab, spec.dim, spec.hash_size);
                let emb = MemCom::new(config, &mut rng).expect("MemCom table builds");
                (Model::Table(Box::new(emb)), None)
            }
            Op::Score => {
                let config = ModelConfig {
                    seed: MODEL_SEED,
                    ..ModelConfig::classifier(
                        spec.vocab,
                        spec.dim,
                        spec.ids_per_request,
                        spec.n_classes,
                    )
                };
                let method = MethodSpec::MemCom {
                    hash_size: spec.hash_size,
                    bias: false,
                };
                let ranker = RecModel::new(&config, &method).expect("classifier builds");
                let backend = RankNetBackend::from_model(&ranker).expect("scoring head loads");
                (Model::Ranker(ranker), Some(Arc::new(backend)))
            }
        };
        let model_built = Instant::now();

        let config = serve_config(telemetry.clone());
        let t_store = Instant::now();
        let store = ShardedStore::build_quantized(
            model.emb(),
            config.n_shards,
            config.cache_capacity,
            config.page_size,
            config.dtype,
        )
        .expect("int8 store builds");
        let store_built = Instant::now();

        let t_server = Instant::now();
        let router = Router::start(config).expect("router starts");
        let backend_name = match &backend {
            Some(b) => {
                router
                    .backends()
                    .register(RANKNET, Arc::clone(b) as _)
                    .expect("backend registers");
                RANKNET
            }
            None => LOOKUP_BACKEND,
        };
        router
            .register_store_with_backend(MODEL, store, backend_name)
            .expect("store registers");
        let probe: Vec<usize> = (0..spec.ids_per_request).collect();
        let served = match spec.front {
            Front::Wire => {
                let server = NetServer::start(
                    router,
                    NetServerConfig {
                        telemetry,
                        ..NetServerConfig::default()
                    },
                )
                .expect("net server starts");
                let client = NetClient::connect(server.local_addr(), NetClientConfig::default())
                    .expect("client connects");
                let ids: Vec<u64> = probe.iter().map(|&i| i as u64).collect();
                match spec.op {
                    Op::Lookup => client.lookup(MODEL, &ids).map(drop),
                    Op::Score => client.score(MODEL, &ids).map(drop),
                }
                .expect("probe request answered");
                Served::Wire { server, client }
            }
            Front::InProc => {
                let handle = router.handle(MODEL).expect("model registered");
                match spec.op {
                    Op::Lookup => handle.get_batch_into(&probe, &mut EmbedBatch::new()),
                    Op::Score => handle.score_batch_into(&probe, &mut ScoreBatch::new()),
                }
                .expect("probe request answered");
                Served::InProc(router)
            }
        };
        let server_started = Instant::now();
        System {
            spec: spec.clone(),
            model,
            backend,
            served,
            times: SetupTimes {
                stages: [
                    (t_model, model_built),
                    (t_store, store_built),
                    (t_server, server_started),
                ],
            },
            probe_rows: spec.ids_per_request as u64,
        }
    }

    pub fn router(&self) -> &Router {
        match &self.served {
            Served::Wire { server, .. } => server.router(),
            Served::InProc(router) => router,
        }
    }

    pub fn handle(&self) -> RouterHandle {
        self.router().handle(MODEL).expect("model registered")
    }

    pub fn client(&self) -> Option<&NetClient> {
        match &self.served {
            Served::Wire { client, .. } => Some(client),
            Served::InProc(_) => None,
        }
    }

    pub fn stats(&self) -> ServeStats {
        self.router().stats(MODEL).expect("model registered")
    }

    /// Closes the connection, drains and stops the server, and returns
    /// the final counters.
    pub fn shutdown(self) -> Shutdown {
        match self.served {
            Served::Wire { server, client } => {
                client.close();
                let (mut models, net) = server.shutdown();
                let stats = models.pop().expect("one model served").1;
                Shutdown {
                    stats,
                    net: Some(net),
                }
            }
            Served::InProc(router) => {
                let mut models = router.shutdown();
                Shutdown {
                    stats: models.pop().expect("one model served").1,
                    net: None,
                }
            }
        }
    }
}
