//! Property-based tests for the `fedci::proto` wire codec: arbitrary
//! frames round-trip losslessly, and adversarial inputs — truncations,
//! hostile length headers, random garbage — come back as clean errors,
//! never a panic and never an allocation bigger than the input justifies.

use fedci::proto::{Frame, ProtoError, TelemetryEvent, MAX_FRAME, PROTO_VERSION, TEL_MAX_EVENTS};
use proptest::collection::vec;
use proptest::prelude::*;

/// Any string a u16-length field can carry (kept short for speed).
fn arb_name() -> BoxedStrategy<String> {
    vec(0u8..128, 0..24)
        .prop_map(|bytes| {
            bytes
                .into_iter()
                .map(|b| (b'a' + (b % 26)) as char)
                .collect()
        })
        .boxed()
}

/// A full-range byte (the shim's strategies are exclusive ranges only).
fn arb_byte() -> BoxedStrategy<u8> {
    (0u16..256).prop_map(|b| b as u8).boxed()
}

fn arb_payload() -> BoxedStrategy<Vec<u8>> {
    vec(arb_byte(), 0..200).boxed()
}

fn arb_frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        (0u16..4, arb_name(), 0u32..256, 0u64..10).prop_map(
            |(proto, name, workers, generation)| {
                Frame::Hello {
                    proto,
                    name,
                    workers,
                    generation,
                }
            }
        ),
        (
            0u64..1_000_000,
            0u32..20,
            0u64..10,
            arb_name(),
            vec(0u64..1_000_000, 0..8),
            arb_payload()
        )
            .prop_map(|(task, attempt, generation, function, deps, payload)| {
                Frame::Dispatch {
                    task,
                    attempt,
                    generation,
                    function,
                    deps,
                    payload,
                }
            }),
        (0u64..1_000_000, 0u32..20, 0u64..10, 0u8..2, arb_payload()).prop_map(
            |(task, attempt, generation, ok, payload)| Frame::Result {
                task,
                attempt,
                generation,
                ok: ok == 1,
                payload,
            }
        ),
        Just(Frame::Poll),
        (0u32..64, 0u32..4096, 0u64..1_000_000).prop_map(|(busy, queued, completed)| {
            Frame::PollAck {
                busy,
                queued,
                completed,
            }
        }),
        (0u64..1_000_000, arb_payload())
            .prop_map(|(key, payload)| Frame::Transfer { key, payload }),
        (0u64..1_000_000, 0u64..1_000_000)
            .prop_map(|(key, stored)| Frame::TransferAck { key, stored }),
        (0u64..1_000_000, 0u64..1_000_000_000)
            .prop_map(|(seq, t_client_us)| Frame::Heartbeat { seq, t_client_us }),
        (
            0u64..1_000_000,
            0u32..64,
            0u64..1_000_000_000,
            0u64..1_000_000_000
        )
            .prop_map(
                |(seq, busy, t_client_us, t_daemon_us)| Frame::HeartbeatAck {
                    seq,
                    busy,
                    t_client_us,
                    t_daemon_us,
                }
            ),
        Just(Frame::Drain),
        (0u32..4096).prop_map(|remaining| Frame::DrainAck { remaining }),
        (0u16..4).prop_map(|level| Frame::TelemetrySub { level: level as u8 }),
        (
            0u64..10,
            0u64..1_000_000,
            vec(arb_tel_event(), 0..12),
            vec((0u16..8, 0u64..1_000_000), 0..4),
            vec((-64i64..64, 0u64..1_000_000), 0..6),
        )
            .prop_map(|(generation, seq, events, counters, exec_buckets)| {
                Frame::Telemetry {
                    generation,
                    seq,
                    events,
                    counters,
                    exec_buckets: exec_buckets
                        .into_iter()
                        .map(|(b, c)| (b as i32, c))
                        .collect(),
                }
            }),
    ]
    .boxed()
}

fn arb_tel_event() -> BoxedStrategy<TelemetryEvent> {
    (
        0u16..8,
        0u64..1_000_000_000,
        0u64..1_000_000,
        0u32..20,
        0u64..1_000,
    )
        .prop_map(|(stage, t_us, task, attempt, arg)| TelemetryEvent {
            stage: stage as u8,
            t_us,
            task,
            attempt,
            arg,
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode(encode(f)) == f, for both the slice and the reader paths.
    #[test]
    fn round_trip_is_lossless(frame in arb_frame()) {
        let bytes = frame.encode();
        prop_assert_eq!(&Frame::decode(&bytes).unwrap(), &frame);
        let mut r = std::io::Cursor::new(bytes);
        prop_assert_eq!(&Frame::read_from(&mut r).unwrap(), &frame);
    }

    /// `encode_into` appends exactly `encode()` after whatever the buffer
    /// already holds, and `encoded_len` predicts its length.
    #[test]
    fn encode_into_appends_encode(frame in arb_frame(), prefix in arb_payload()) {
        let mut buf = prefix.clone();
        frame.encode_into(&mut buf);
        let mut want = prefix;
        want.extend_from_slice(&frame.encode());
        prop_assert_eq!(buf, want);
        prop_assert_eq!(frame.encoded_len(), frame.encode().len());
    }

    /// A TRANSFER encoded from a borrowed blob (header, then the blob's
    /// own bytes) is byte-identical to the owned frame's encoding.
    #[test]
    fn borrowed_transfer_encoding_matches_owned(key in 0u64..u64::MAX, payload in arb_payload()) {
        let mut borrowed = Frame::transfer_header(key, payload.len()).to_vec();
        borrowed.extend_from_slice(&payload);
        prop_assert_eq!(borrowed, Frame::Transfer { key, payload }.encode());
    }

    /// A RESULT sent from a shared payload is byte-identical to the owned
    /// frame.
    #[test]
    fn borrowed_result_encoding_matches_owned(
        task in 0u64..u64::MAX,
        attempt in 0u32..u32::MAX,
        generation in 0u64..u64::MAX,
        ok in 0u8..2,
        payload in arb_payload(),
    ) {
        let ok = ok == 1;
        let mut borrowed = Frame::result_header(task, attempt, generation, ok, payload.len()).to_vec();
        borrowed.extend_from_slice(&payload);
        let owned = Frame::Result { task, attempt, generation, ok, payload };
        prop_assert_eq!(borrowed, owned.encode());
    }

    /// Concatenated frames stream back in order through `read_from`.
    #[test]
    fn streams_preserve_frame_order(frames in vec(arb_frame(), 1..6)) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut r = std::io::Cursor::new(stream);
        for f in &frames {
            prop_assert_eq!(&Frame::read_from(&mut r).unwrap(), f);
        }
        prop_assert!(matches!(Frame::read_from(&mut r), Err(ProtoError::Truncated)));
    }

    /// Cutting a valid frame anywhere yields an error, not a panic and
    /// not a bogus decode.
    #[test]
    fn truncation_never_panics(frame in arb_frame(), cut_frac in 0.0f64..1.0) {
        let bytes = frame.encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
        let mut r = std::io::Cursor::new(bytes[..cut].to_vec());
        prop_assert!(Frame::read_from(&mut r).is_err());
    }

    /// A hostile length header is rejected as Oversized before any
    /// body-sized allocation happens — from a 4-byte input.
    #[test]
    fn hostile_length_header_rejected(len in (MAX_FRAME + 1)..u32::MAX) {
        let header = len.to_le_bytes();
        prop_assert!(matches!(
            Frame::decode(&header),
            Err(ProtoError::Oversized(_))
        ));
        let mut r = std::io::Cursor::new(header.to_vec());
        prop_assert!(matches!(
            Frame::read_from(&mut r),
            Err(ProtoError::Oversized(_))
        ));
    }

    /// Arbitrary garbage either fails cleanly or decodes to something
    /// that re-encodes to the same bytes (i.e. it happened to be valid).
    #[test]
    fn garbage_decodes_cleanly_or_not_at_all(bytes in vec(arb_byte(), 0..64)) {
        match Frame::decode(&bytes) {
            Err(_) => {}
            Ok(frame) => prop_assert_eq!(frame.encode(), bytes),
        }
    }

    /// Corrupting one byte of a valid frame never panics; if it still
    /// decodes, re-encoding reproduces the corrupted bytes (the codec is
    /// a bijection on its valid set).
    #[test]
    fn single_byte_corruption_never_panics(
        frame in arb_frame(),
        pos_frac in 0.0f64..1.0,
        xor in 1u16..256,
    ) {
        let mut bytes = frame.encode();
        let pos = ((bytes.len() as f64) * pos_frac) as usize;
        prop_assume!(pos < bytes.len());
        bytes[pos] ^= xor as u8;
        match Frame::decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(decoded.encode(), bytes),
        }
    }
}

/// Non-property regression anchors: the exact constants matter on the
/// wire, so pin them.
#[test]
fn wire_constants_are_pinned() {
    // Revision 2: clock-sync timestamps on the heartbeat exchange, span
    // context on DISPATCH/RESULT, TELEMETRY_SUB/TELEMETRY frames.
    // Revision 3: no frame changed; a daemon keeps each ok RESULT's payload
    // as blob `task`, and clients no longer stage outputs back to the
    // endpoint that produced them.
    assert_eq!(PROTO_VERSION, 3);
    assert_eq!(MAX_FRAME, 16 * 1024 * 1024);
    const { assert!(TEL_MAX_EVENTS >= 1024) };
    // Kind tags are part of the wire contract; renumbering breaks
    // rolling upgrades between daemon and client builds.
    assert_eq!(Frame::Poll.kind(), 4);
    assert_eq!(Frame::Drain.kind(), 10);
    assert_eq!(
        Frame::Heartbeat {
            seq: 0,
            t_client_us: 0
        }
        .kind(),
        8
    );
    assert_eq!(Frame::TelemetrySub { level: 0 }.kind(), 12);
    assert_eq!(
        Frame::Telemetry {
            generation: 0,
            seq: 0,
            events: vec![],
            counters: vec![],
            exec_buckets: vec![],
        }
        .kind(),
        13
    );
}
