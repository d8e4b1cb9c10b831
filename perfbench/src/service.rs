//! The service layer's request shapes, for the per-layer timings: the
//! soak's 12×8 frames at stream 128, alternating the order-6 gamma and
//! order-3 contrast circuits, and the 2-worker `PoolDispatcher` (one
//! thread per worker) a `Service` answers them through.

use osc_apps::backend::OpticalBackend;
use osc_apps::contrast::smoothstep_poly;
use osc_apps::gamma_app::paper_gamma_polynomial;
use osc_apps::image::Image;
use osc_core::batch::mix_seed;
use osc_core::batch::shard::pool::{PoolConfig, PoolDispatcher};
use osc_core::batch::shard::{ShardRequest, SngKind};
use osc_core::params::CircuitParams;
use osc_units::Nanometers;
use std::path::Path;

const WORKERS: usize = 2;
const WIDTH: usize = 12;
const HEIGHT: usize = 8;
const STREAM: usize = 128;
/// Distinct requests the schedule cycles through.
pub const DISTINCT: usize = 256;

/// The request schedule: one frame, a backend per request and the wire
/// request that carries it.
pub struct Schedule {
    pub image: Image,
    pub backends: Vec<OpticalBackend>,
    pub requests: Vec<ShardRequest>,
}

/// The order-6 gamma and order-3 contrast circuits of the schedule.
fn bases() -> Result<[OpticalBackend; 2], String> {
    let gamma = OpticalBackend::new(
        CircuitParams::paper_fig7(6, Nanometers::new(0.165)),
        paper_gamma_polynomial().map_err(|e| e.to_string())?,
        STREAM,
        0,
    )
    .map_err(|e| e.to_string())?;
    let contrast = OpticalBackend::new(
        CircuitParams::paper_fig7(3, Nanometers::new(0.2)),
        smoothstep_poly(),
        STREAM,
        0,
    )
    .map_err(|e| e.to_string())?;
    Ok([gamma, contrast])
}

/// Builds the `DISTINCT` requests of `seed`.
pub fn schedule(seed: u64) -> Result<Schedule, String> {
    let bases = bases()?;
    let image = Image::blobs(WIDTH, HEIGHT);
    let mut backends = Vec::with_capacity(DISTINCT);
    let mut requests = Vec::with_capacity(DISTINCT);
    for r in 0..DISTINCT {
        let backend = bases[r % 2].with_seed(mix_seed(seed, r as u64));
        requests.push(
            ShardRequest::whole_image(
                backend.system(),
                SngKind::Xoshiro,
                WIDTH,
                image.pixels(),
                STREAM,
                backend.seed(),
                None,
            )
            .map_err(|e| e.to_string())?,
        );
        backends.push(backend);
    }
    Ok(Schedule {
        image,
        backends,
        requests,
    })
}

/// A 2-worker dispatcher of one thread per worker.
pub fn spawn_dispatcher(worker: &Path) -> Result<PoolDispatcher, String> {
    PoolConfig::new(worker, WORKERS)
        .with_worker_threads(1)
        .spawn_dispatcher()
        .map_err(|e| format!("spawning the dispatcher: {e}"))
}
