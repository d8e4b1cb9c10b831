//! One table over every serving tier: [`Executor::InProcess`],
//! `Spawn`, `Pool` and `Service` must answer both wire job kinds — an
//! image and a call's batches — clean and faulted, with exactly the
//! in-process runs, and must agree on which degenerate inputs (ragged
//! images, zero widths, empty images, empty batches, empty calls) are
//! errors.
//!
//! This suite owns the worker binary via `CARGO_BIN_EXE_shard_worker`.

use osc_core::batch::shard::pool::{PoolConfig, WorkerPool};
use osc_core::batch::shard::service::{Service, ServiceClient};
use osc_core::batch::shard::{BatchJob, Executor, ShardError, SngKind};
use osc_core::batch::BatchEvaluator;
use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_core::system::{OpticalRun, OpticalScSystem};
use osc_stochastic::bernstein::BernsteinPoly;

const WORKER: &str = env!("CARGO_BIN_EXE_shard_worker");

/// Every tier, built once and reused across the table.
struct Tiers {
    evaluator: BatchEvaluator,
    spawn: PoolConfig,
    pool: WorkerPool,
    client: ServiceClient,
    service: Service,
}

impl Tiers {
    fn spawn() -> Tiers {
        let dispatcher = PoolConfig::new(WORKER, 2).spawn_dispatcher().unwrap();
        let service = Service::bind(("127.0.0.1", 0), dispatcher).unwrap();
        Tiers {
            evaluator: BatchEvaluator::with_threads(2),
            spawn: PoolConfig::new(WORKER, 3),
            pool: PoolConfig::new(WORKER, 2).spawn().unwrap(),
            client: ServiceClient::connect(service.local_addr()).unwrap(),
            service,
        }
    }

    /// Runs `call` on each tier, in-process first.
    fn each<R>(&mut self, mut call: impl FnMut(&mut Executor<'_>) -> R) -> Vec<(&'static str, R)> {
        vec![
            (
                "in-process",
                call(&mut Executor::InProcess(&self.evaluator)),
            ),
            ("spawn", call(&mut Executor::Spawn(&self.spawn))),
            ("pool", call(&mut Executor::Pool(&mut self.pool))),
            ("service", call(&mut Executor::Service(&mut self.client))),
        ]
    }
}

/// What one tier answered, reduced to what must agree across tiers:
/// the runs, or the fact of an error.
fn assert_tiers_agree<T: PartialEq + std::fmt::Debug>(
    case: &str,
    answers: Vec<(&str, Result<T, ShardError>)>,
) -> Option<T> {
    let mut answers = answers.into_iter();
    let (_, reference) = answers.next().unwrap();
    for (tier, answer) in answers {
        match (&reference, answer) {
            (Ok(want), Ok(got)) => assert_eq!(&got, want, "{case}: {tier} ≠ in-process"),
            (Err(_), Err(_)) => {}
            (want, got) => panic!("{case}: {tier} answered {got:?}, in-process {want:?}"),
        }
    }
    reference.ok()
}

fn system(coeffs: Vec<f64>) -> OpticalScSystem {
    OpticalScSystem::new(
        CircuitParams::paper_fig5(),
        BernsteinPoly::new(coeffs).unwrap(),
    )
    .unwrap()
}

fn ramp(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 17) as f64 / 16.0).collect()
}

#[test]
fn every_executor_answers_images_and_batches_with_in_process_bytes() {
    let mut tiers = Tiers::spawn();
    let rising = system(vec![0.25, 0.625, 0.75]);
    let falling = system(vec![0.75, 0.375, 0.25]);
    let mut fault = FaultSpec::with_seed(0xE7EC);
    fault.flip_probability = 0.02;
    fault.shift_probability = 0.001;

    for faults in [None, Some(&fault)] {
        let label = if faults.is_some() { "faulted" } else { "clean" };

        // Images: width 13 rides the ragged 8 + 4 + 1 lane blocks and
        // splits 4 rows raggedly over 3 spawned shards; then the
        // degenerate shapes.
        let images: [(&str, usize, Vec<f64>); 5] = [
            ("13x4 image", 13, ramp(52)),
            ("ragged width 3 over 4 pixels", 3, ramp(4)),
            ("width 0 over 4 pixels", 0, ramp(4)),
            ("width 0 over no pixels", 0, Vec::new()),
            ("empty width-5 image", 5, Vec::new()),
        ];
        let mut image_runs = Vec::new();
        for (name, width, pixels) in &images {
            let case = format!("{label} {name}");
            let answers = tiers.each(|executor| {
                executor.image(&rising, SngKind::Xoshiro, *width, pixels, 128, 9, faults)
            });
            image_runs.push(assert_tiers_agree(&case, answers));
        }
        let whole = image_runs[0].as_ref().expect("the 13x4 image evaluates");
        assert_eq!(whole.len(), 52);
        assert!(image_runs[1..4].iter().all(Option::is_none), "{label}");
        assert_eq!(image_runs[4], Some(Vec::new()), "{label}");

        // Batches: one call carrying every SNG kind over two circuits,
        // an empty batch inside a call, and a call with no jobs.
        let xs = ramp(11);
        let jobs: Vec<BatchJob<'_>> = SngKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &sng)| BatchJob {
                system: if i % 2 == 0 { &rising } else { &falling },
                sng,
                xs: &xs[..11 - i],
                stream_length: 96,
                seed: 40 + i as u64,
                faults,
            })
            .collect();
        let empty_job = BatchJob { xs: &[], ..jobs[0] };
        let calls: [(&str, Vec<BatchJob<'_>>); 3] = [
            ("every SNG kind", jobs.clone()),
            ("an empty batch", vec![jobs[1], empty_job]),
            ("no jobs", Vec::new()),
        ];
        let mut batch_runs: Vec<Option<Vec<Vec<OpticalRun>>>> = Vec::new();
        for (name, call) in &calls {
            let case = format!("{label} batches: {name}");
            batch_runs.push(assert_tiers_agree(
                &case,
                tiers.each(|executor| executor.batches(call)),
            ));
        }
        let lengths: Vec<usize> = batch_runs[0]
            .as_ref()
            .unwrap()
            .iter()
            .map(Vec::len)
            .collect();
        assert_eq!(lengths, vec![11, 10, 9, 8], "{label}");
        assert_eq!(
            batch_runs[1].as_ref().unwrap(),
            &vec![batch_runs[0].as_ref().unwrap()[1].clone(), Vec::new()],
            "{label}: a job's runs do not depend on its call"
        );
        assert_eq!(batch_runs[2], Some(Vec::new()), "{label}");
    }

    // The faults are real: faulted bytes differ from clean bytes.
    let image_under = |faults: Option<&FaultSpec>| {
        Executor::InProcess(&tiers.evaluator)
            .image(&rising, SngKind::Xoshiro, 13, &ramp(52), 128, 9, faults)
            .unwrap()
    };
    assert_ne!(
        image_under(None),
        image_under(Some(&fault)),
        "faults must perturb output"
    );

    let Tiers {
        client, service, ..
    } = tiers;
    drop(client);
    service.drain();
}
