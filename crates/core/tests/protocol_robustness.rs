//! Protocol robustness: hostile or corrupted wire input must surface as
//! **values** — error responses from a still-alive worker where the
//! stream can be resynchronized, clean `io::Error`s (never panics,
//! hangs or unbounded allocations) where it cannot. The
//! coordinator/pool side of the same contract — dead and garbage-
//! speaking workers becoming [`osc_core::batch::shard::ShardError`]
//! values after retries — is pinned with real subprocesses in the
//! `osc-bench` suites.
//!
//! The seeded fuzz loop at the bottom mutates valid frames (byte flips,
//! truncations, splices, length-prefix edits) and checks that the one
//! decoder never panics or allocates past its frame, and that [`serve`]
//! answers every complete frame with exactly one decodable response.

use osc_core::backend::BackendKind;
use osc_core::batch::shard::{
    circuit_digest, decode_request_v2, decode_response_v2, encode_request_v2, encode_response_v2,
    read_frame, serve, write_frame, ShardJob, ShardRequest, ShardResponseV2, SngKind,
    MAX_FRAME_BYTES, MAX_STREAM_LENGTH, PROTOCOL_VERSION,
};
use osc_core::fault::{FaultSpec, StuckAt};
use osc_core::params::CircuitParams;
use osc_core::system::OpticalRun;
use osc_math::rng::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

fn small_request() -> ShardRequest {
    ShardRequest {
        params: CircuitParams::paper_fig5(),
        coeffs: vec![0.25, 0.625, 0.75],
        sng: SngKind::Xoshiro,
        seed: 3,
        stream_length: 64,
        faults: None,
        job: ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        },
    }
}

fn faulted_request() -> ShardRequest {
    ShardRequest {
        faults: Some(FaultSpec {
            flip_probability: 0.02,
            shift_probability: 0.01,
            stuck: Some(StuckAt {
                mask: 0x8000_0000_0000_0001,
                value: 1,
            }),
            ..FaultSpec::with_seed(17)
        }),
        ..small_request()
    }
}

/// Collects every response frame a worker loop produces for `input`,
/// plus whether the loop exited cleanly (EOF) or with a transport
/// error.
fn serve_raw(input: &[u8]) -> (Vec<Vec<u8>>, std::io::Result<()>) {
    let mut output = Vec::new();
    let outcome = serve(input, &mut output);
    let mut responses = Vec::new();
    let mut reader = &output[..];
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        responses.push(payload);
    }
    (responses, outcome)
}

/// Frames every payload into one input stream.
fn framed(payloads: &[&[u8]]) -> Vec<u8> {
    let mut input = Vec::new();
    for payload in payloads {
        write_frame(&mut input, payload).unwrap();
    }
    input
}

/// The error message of an error response echoing `request_id`.
fn error_message(payload: &[u8], request_id: u64) -> String {
    match decode_response_v2(payload).unwrap() {
        ShardResponseV2::Error {
            request_id: echoed,
            message,
        } => {
            assert_eq!(echoed, request_id, "{message}");
            message
        }
        other => panic!("expected an error value, got {other:?}"),
    }
}

fn is_runs(payload: &[u8], request_id: u64) -> bool {
    matches!(
        decode_response_v2(payload),
        Ok(ShardResponseV2::Runs { request_id: id, .. }) if id == request_id
    )
}

#[test]
fn truncated_frames_error_cleanly_after_answering_what_arrived() {
    // A complete request followed by a frame cut off mid-payload: the
    // worker answers the first and reports a transport error for the
    // torso — no panic, no hang, no half-written response.
    let good = encode_request_v2(&small_request(), 1, None);
    let input = framed(&[&good, &good]);
    let cut_at = 8 + good.len() + 12; // one frame, then prefix + 4 payload bytes
    let (responses, outcome) = serve_raw(&input[..cut_at]);
    assert_eq!(responses.len(), 1, "the complete request was answered");
    assert!(is_runs(&responses[0], 1));
    let err = outcome.unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    // EOF mid-prefix is the same clean error.
    let (responses, outcome) = serve_raw(&input[..3]);
    assert!(responses.is_empty());
    assert_eq!(
        outcome.unwrap_err().kind(),
        std::io::ErrorKind::UnexpectedEof
    );
}

#[test]
fn oversized_length_prefixes_are_rejected_before_allocation() {
    for hostile_len in [MAX_FRAME_BYTES + 1, u64::MAX, 1 << 60] {
        let mut input = hostile_len.to_le_bytes().to_vec();
        input.extend_from_slice(b"whatever follows");
        let err = read_frame(&mut &input[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{hostile_len}");
        assert!(err.to_string().contains("exceeds"), "{err}");
        // The worker loop surfaces the same clean error.
        let (responses, outcome) = serve_raw(&input);
        assert!(responses.is_empty());
        assert_eq!(
            outcome.unwrap_err().kind(),
            std::io::ErrorKind::InvalidData,
            "{hostile_len}"
        );
    }
    // Exactly at the cap the prefix itself is fine (the payload is then
    // simply truncated input → UnexpectedEof, not InvalidData), and the
    // reader commits memory for the bytes that arrived, not the cap.
    let input = MAX_FRAME_BYTES.to_le_bytes().to_vec();
    let (outcome, peak) = peak_alloc(|| read_frame(&mut &input[..]));
    assert_eq!(
        outcome.unwrap_err().kind(),
        std::io::ErrorKind::UnexpectedEof
    );
    assert!(peak <= READ_CHUNK, "read_frame reserved {peak} bytes");
}

#[test]
fn unknown_tags_are_error_values_and_the_worker_stays_alive() {
    let good = encode_request_v2(&small_request(), 44, None);
    let faulted = encode_request_v2(&faulted_request(), 45, None);
    let retag = |frame: &[u8], at: usize, value: u8| {
        let mut bad = frame.to_vec();
        bad[at] = value;
        bad
    };
    // Circuit kind at offset 16, job kind 17, SNG 18; the stuck-at
    // flag of a faulted frame sits after the presence byte and the
    // four spec words; the backend tag in the high half of the order
    // word after a clean frame's one-byte fault block.
    let bad_frames = [
        (retag(&good, 16, 5), "circuit kind"),
        (retag(&good, 17, 9), "job kind"),
        (retag(&good, 18, 77), "SNG kind"),
        (retag(&faulted, 36 + 1 + 32, 7), "stuck-at flag"),
        (retag(&good, 37 + 4, 0xEE), "backend tag"),
    ];
    let mut payloads: Vec<&[u8]> = bad_frames.iter().map(|(f, _)| f.as_slice()).collect();
    payloads.push(&good);
    payloads.push(&faulted);
    let (responses, outcome) = serve_raw(&framed(&payloads));
    outcome.unwrap();
    assert_eq!(responses.len(), 7, "every frame answered, worker alive");
    for (i, (frame, what)) in bad_frames.iter().enumerate() {
        let message = error_message(
            &responses[i],
            u64::from_le_bytes(frame[8..16].try_into().unwrap()),
        );
        assert!(
            message.contains("unknown") && message.contains(what),
            "frame {i}: {message} (want {what})"
        );
    }
    // The trailing good requests still evaluate.
    assert!(is_runs(&responses[5], 44));
    assert!(is_runs(&responses[6], 45));
}

#[test]
fn version_mismatch_is_answered_and_the_worker_stays_alive() {
    // Frames claiming the retired versions 1 and 2, and the future
    // version 4: each is answered with an error value naming its
    // version and echoing its request ID, and the worker keeps serving.
    assert_eq!(PROTOCOL_VERSION, 3);
    let mut payloads = Vec::new();
    for (id, version) in [(1u64, 1u32), (2, 2), (4, 4)] {
        let mut frame = encode_request_v2(&small_request(), id, None);
        frame[4..8].copy_from_slice(&version.to_le_bytes());
        payloads.push(frame);
    }
    payloads.push(encode_request_v2(&small_request(), 9, None));
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let (responses, outcome) = serve_raw(&framed(&refs));
    outcome.unwrap();
    assert_eq!(responses.len(), 4);
    for (i, (id, version)) in [(1u64, 1u32), (2, 2), (4, 4)].into_iter().enumerate() {
        let message = error_message(&responses[i], id);
        assert!(message.contains(&format!("version {version}")), "{message}");
    }
    assert!(is_runs(&responses[3], 9));
}

#[test]
fn out_of_bounds_sizes_are_error_values_and_the_worker_keeps_serving() {
    // One frame each: a stream length past the cap (2^40 bits used to
    // abort the worker on a 512 GiB allocation), a batch whose global
    // index range wraps u64 (used to alias index 0), an image whose row
    // range wraps. Each comes back as an error value; the next good
    // frame is still served.
    let with_stream = |stream_length: u64| ShardRequest {
        stream_length,
        ..small_request()
    };
    let with_job = |job: ShardJob| ShardRequest {
        job,
        ..small_request()
    };
    let bad = [
        (with_stream(1 << 40), "stream length"),
        (with_stream(MAX_STREAM_LENGTH + 1), "stream length"),
        (
            with_job(ShardJob::Batch {
                first_index: u64::MAX,
                xs: vec![0.5],
            }),
            "overflows",
        ),
        (
            with_job(ShardJob::ImageRows {
                width: 1,
                first_row: u64::MAX,
                pixels: vec![0.5],
            }),
            "overflows",
        ),
    ];
    let mut payloads: Vec<Vec<u8>> = bad
        .iter()
        .enumerate()
        .map(|(i, (req, _))| encode_request_v2(req, 100 + i as u64, None))
        .collect();
    // An empty image claiming an absurd width is valid and answered
    // with no runs, without planning lane blocks for that width.
    payloads.push(encode_request_v2(
        &with_job(ShardJob::ImageRows {
            width: 1 << 40,
            first_row: 0,
            pixels: Vec::new(),
        }),
        200,
        None,
    ));
    payloads.push(encode_request_v2(&small_request(), 201, None));
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let (responses, outcome) = serve_raw(&framed(&refs));
    outcome.unwrap();
    assert_eq!(responses.len(), bad.len() + 2);
    for (i, (_, what)) in bad.iter().enumerate() {
        let message = error_message(&responses[i], 100 + i as u64);
        assert!(message.contains(what), "frame {i}: {message}");
    }
    match decode_response_v2(&responses[bad.len()]).unwrap() {
        ShardResponseV2::Runs { request_id, runs } => {
            assert_eq!(request_id, 200);
            assert!(runs.is_empty());
        }
        other => panic!("expected an empty run list, got {other:?}"),
    }
    assert!(is_runs(&responses[bad.len() + 1], 201));
}

#[test]
fn response_decoders_reject_unknown_statuses_and_cross_version_frames() {
    let run = OpticalRun {
        estimate: 0.5,
        ideal_estimate: 0.5,
        exact: 0.5,
        observed_ber: 0.0,
        stream_length: 64,
    };
    let good = encode_response_v2(&ShardResponseV2::Runs {
        request_id: 1,
        runs: vec![run],
    });
    // The status byte is at offset 16.
    let mut bad = good.clone();
    bad[16] = 9;
    assert!(decode_response_v2(&bad).unwrap_err().contains("status"));
    // Absurd declared counts are rejected before allocation.
    let mut huge = good.clone();
    huge[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_response_v2(&huge).is_err());
    // Another version's response is refused, and a request is not a
    // response (nor the other way round).
    let mut old = good.clone();
    old[4..8].copy_from_slice(&2u32.to_le_bytes());
    assert!(decode_response_v2(&old).unwrap_err().contains("version 2"));
    let request = encode_request_v2(&small_request(), 1, None);
    assert!(decode_response_v2(&request).unwrap_err().contains("magic"));
    assert!(decode_request_v2(&good).unwrap_err().contains("magic"));
}

#[test]
fn request_decoders_never_panic_on_corrupted_bytes() {
    // Flip every byte of a clean and a faulted request (one at a time)
    // and decode: any outcome is fine except a panic.
    let frames = [
        encode_request_v2(&small_request(), 1, None),
        encode_request_v2(&faulted_request(), 2, None),
    ];
    for frame in &frames {
        for i in 0..frame.len() {
            let mut mutated = frame.clone();
            mutated[i] ^= 0xA5;
            let _ = decode_request_v2(&mutated);
        }
    }
    // And the worker loop answers every mutation with *some* clean
    // frame (spot-check a few offsets across the payload regions).
    let clean = &frames[0];
    for &i in &[0usize, 4, 8, 16, 40, clean.len() - 1] {
        let mut mutated = clean.clone();
        mutated[i] ^= 0xA5;
        let (responses, outcome) = serve_raw(&framed(&[&mutated]));
        outcome.unwrap();
        assert_eq!(responses.len(), 1, "offset {i}");
    }
}

// ---------------------------------------------------------------------
// Seeded fuzz loop
// ---------------------------------------------------------------------

/// Records, per thread, the largest single allocation made while
/// [`peak_alloc`] runs — how the fuzz loop checks that a decoder never
/// allocates past the frame it was handed.
struct PeakTracking;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation(size: usize) {
    let _ = TRACKING.try_with(|tracking| {
        if tracking.get() {
            PEAK.with(|peak| peak.set(peak.get().max(size)));
        }
    });
}

// SAFETY: every method forwards to the system allocator unchanged; the
// bookkeeping touches only const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakTracking = PeakTracking;

/// Runs `f` and returns its result with the largest single allocation
/// it made on this thread.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(0));
    TRACKING.with(|tracking| tracking.set(true));
    let out = f();
    TRACKING.with(|tracking| tracking.set(false));
    (out, PEAK.with(Cell::get))
}

/// Headroom over the frame size for a decoder's small allocations (an
/// error message, a format buffer).
const ALLOC_SLACK: usize = 512;
/// The buffer `read_frame` starts a payload with; beyond it the buffer
/// grows only with bytes that actually arrived.
const READ_CHUNK: usize = 64 * 1024;
/// Cap on the evaluation work (items × stream bits) of one fuzzed serve
/// call. A mutated stream length may legally reach
/// [`MAX_STREAM_LENGTH`]; such frames still go through the decoders,
/// but serving them would only spend time, not probe robustness.
const SERVE_WORK_BUDGET: u64 = 1 << 16;

/// Valid request frames: clean and faulted, inline and cached circuits,
/// batch and image jobs, both backends.
fn request_corpus() -> Vec<Vec<u8>> {
    let mut corpus = Vec::new();
    let image = ShardJob::ImageRows {
        width: 2,
        first_row: 5,
        pixels: vec![0.1, 0.9, 0.4, 0.6],
    };
    let batch = ShardJob::Batch {
        first_index: 3,
        xs: vec![0.25, 0.75],
    };
    let mut id = 1u64;
    for backend in BackendKind::ALL {
        for base in [small_request(), faulted_request()] {
            for job in [batch.clone(), image.clone()] {
                let req = ShardRequest {
                    params: base.params.with_backend(backend),
                    job,
                    ..base.clone()
                };
                let digest = circuit_digest(&req.params, &req.coeffs);
                corpus.push(encode_request_v2(&req, id, None));
                corpus.push(encode_request_v2(&req, id + 1, Some(digest)));
                id += 2;
            }
        }
    }
    corpus
}

/// Valid response frames, one per status.
fn response_corpus() -> Vec<Vec<u8>> {
    let run = OpticalRun {
        estimate: 0.25,
        ideal_estimate: 0.5,
        exact: 0.75,
        observed_ber: 1e-3,
        stream_length: 64,
    };
    [
        ShardResponseV2::Runs {
            request_id: 7,
            runs: vec![run; 3],
        },
        ShardResponseV2::Error {
            request_id: 8,
            message: "no circuit for you".to_string(),
        },
        ShardResponseV2::CacheMiss {
            request_id: 9,
            digest: 0xDEAD_BEEF,
        },
    ]
    .iter()
    .map(encode_response_v2)
    .collect()
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

/// One payload-level mutation: multi-byte flips, a truncation or a
/// splice with another frame of the corpus.
fn mutate(rng: &mut SplitMix64, frame: &[u8], corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut out = frame.to_vec();
    match below(rng, 3) {
        0 => {
            for _ in 0..1 + below(rng, 4) {
                let at = below(rng, out.len());
                out[at] ^= 1 + below(rng, 255) as u8;
            }
        }
        1 => out.truncate(below(rng, out.len())),
        _ => {
            let other = &corpus[below(rng, corpus.len())];
            out.truncate(below(rng, out.len() + 1));
            out.extend_from_slice(&other[below(rng, other.len() + 1)..]);
        }
    }
    out
}

/// A length prefix edit: off by a little, a little short, zero, just
/// past the cap, or anything at all.
fn edited_length(rng: &mut SplitMix64, len: u64) -> u64 {
    match below(rng, 5) {
        0 => len.wrapping_add(1 + below(rng, 16) as u64),
        1 => len.saturating_sub(1 + below(rng, 16) as u64),
        2 => 0,
        3 => MAX_FRAME_BYTES + 1,
        _ => rng.next_u64(),
    }
}

/// Evaluation work a request payload would cost a worker, or 0 when it
/// does not decode.
fn serve_work(payload: &[u8]) -> u64 {
    decode_request_v2(payload).map_or(0, |req| {
        req.stream_length
            .saturating_mul(req.job.expected_runs() as u64)
    })
}

/// The request ID a response to `payload` must echo: the ID bytes when
/// the frame holds them, 0 otherwise.
fn echoed_id(payload: &[u8]) -> u64 {
    payload
        .get(8..16)
        .map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()))
}

fn assert_decoder_stays_in_frame<T>(what: &str, payload: &[u8], decode: impl FnOnce() -> T) {
    let (_, peak) = peak_alloc(decode);
    assert!(
        peak <= payload.len() + ALLOC_SLACK,
        "{what} allocated {peak} bytes for a {}-byte frame",
        payload.len()
    );
}

/// The fuzz loop: `iterations` rounds, each mutating a few valid frames
/// into one input stream and checking the decoders and [`serve`] on it.
/// Returns how many rounds were served (the rest exceeded
/// [`SERVE_WORK_BUDGET`]).
fn fuzz_codec(seed: u64, iterations: usize) -> usize {
    let mut rng = SplitMix64::new(seed);
    let requests = request_corpus();
    let responses = response_corpus();
    let everything: Vec<Vec<u8>> = requests.iter().chain(&responses).cloned().collect();
    let mut served = 0;
    for round in 0..iterations {
        // Responses: every mutation decodes to a value or an error,
        // inside the frame.
        let pick = below(&mut rng, responses.len());
        let response = mutate(&mut rng, &responses[pick], &everything);
        assert_decoder_stays_in_frame("decode_response_v2", &response, || {
            decode_response_v2(&response)
        });

        // Requests: up to four frames, most of them mutated.
        let payloads: Vec<Vec<u8>> = (0..1 + below(&mut rng, 4))
            .map(|_| {
                let frame = &requests[below(&mut rng, requests.len())];
                if below(&mut rng, 4) == 0 {
                    frame.clone()
                } else {
                    mutate(&mut rng, frame, &everything)
                }
            })
            .collect();
        for payload in &payloads {
            assert_decoder_stays_in_frame("decode_request_v2", payload, || {
                decode_request_v2(payload)
            });
            // Requests double as hostile input for the response decoder.
            assert_decoder_stays_in_frame("decode_response_v2", payload, || {
                decode_response_v2(payload)
            });
        }
        let mut input = Vec::new();
        for payload in &payloads {
            write_frame(&mut input, payload).unwrap();
        }
        if below(&mut rng, 4) == 0 {
            // Edit one frame's length prefix: the stream desyncs from
            // there on, and what follows is read as whatever it parses
            // as.
            let frame = below(&mut rng, payloads.len());
            let at: usize = payloads[..frame].iter().map(|p| 8 + p.len()).sum();
            let len = payloads[frame].len() as u64;
            input[at..at + 8].copy_from_slice(&edited_length(&mut rng, len).to_le_bytes());
        }

        // The frames a reader finds in the stream, and how it ends.
        let mut reader = &input[..];
        let mut complete = Vec::new();
        let ended_cleanly = loop {
            let (next, peak) = peak_alloc(|| read_frame(&mut reader));
            assert!(
                peak <= READ_CHUNK.max(2 * input.len()) + ALLOC_SLACK,
                "round {round}: read_frame allocated {peak} bytes from a {}-byte stream",
                input.len()
            );
            match next {
                Ok(Some(payload)) => complete.push(payload),
                Ok(None) => break true,
                Err(_) => break false,
            }
        };
        let work: u64 = complete.iter().map(|p| serve_work(p)).sum();
        if work > SERVE_WORK_BUDGET {
            continue;
        }
        served += 1;

        // The worker answers every complete frame with exactly one
        // decodable response echoing its ID, and exits cleanly exactly
        // when the stream ends on a frame boundary.
        let (answers, outcome) = serve_raw(&input);
        assert_eq!(
            outcome.is_ok(),
            ended_cleanly,
            "round {round}: serve ended with {outcome:?}"
        );
        assert_eq!(
            answers.len(),
            complete.len(),
            "round {round}: one response per complete frame"
        );
        for (request, answer) in complete.iter().zip(&answers) {
            let response = decode_response_v2(answer)
                .unwrap_or_else(|e| panic!("round {round}: undecodable response: {e}"));
            let id = match response {
                ShardResponseV2::Runs { request_id, .. }
                | ShardResponseV2::Error { request_id, .. }
                | ShardResponseV2::CacheMiss { request_id, .. } => request_id,
            };
            assert_eq!(id, echoed_id(request), "round {round}: echoed request ID");
        }
    }
    served
}

#[test]
fn fuzzed_frames_never_kill_the_decoder_or_the_worker() {
    let iterations = 5_000;
    let served = fuzz_codec(0x0F0C_0DEC, iterations);
    assert!(served * 10 >= iterations * 9, "only {served} rounds served");
}

/// The long run of the same loop (CI runs it in release).
#[test]
#[ignore = "long fuzz run; CI runs it with --release -- --ignored"]
fn fuzzed_frames_never_kill_the_decoder_or_the_worker_long() {
    let iterations = 200_000;
    let served = fuzz_codec(0x1005_E0DE, iterations);
    assert!(served * 10 >= iterations * 9, "only {served} rounds served");
}
