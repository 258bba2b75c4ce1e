//! Codec properties: arbitrary requests / results / errors survive
//! encode→decode (checked as re-encode byte equality, since the core
//! param structs don't implement `PartialEq`), and adversarial bytes —
//! truncations, bit flips, garbage — are rejected with typed
//! [`ProtocolError`]s, never a panic.

use lgc_core::{
    Algorithm, BoundaryHook, CancelToken, ClusterResult, Diffusion, DiffusionStats, EvolvingParams,
    FaultPlan, HkprParams, NibbleParams, PrNibbleParams, PushRule, Query, QueryBudget,
    RandHkprParams, Seed, SweepCut, Trip, Tripped,
};
use lgc_server::frame::{self, read_frame, write_frame, FrameKind, ProtocolError};
use lgc_server::wire::{
    decode_error, decode_names, decode_query_request, decode_result, encode_error, encode_names,
    encode_query_request, encode_result, Priority, QueryRequest, WireError, WirePartial,
};
use proptest::prelude::*;
use std::time::Duration;

// ---------------------------------------------------------------------
// Strategies (the shim has integer ranges, tuples, vec, oneof)
// ---------------------------------------------------------------------

fn arb_f64() -> impl Strategy<Value = f64> {
    // Mantissa-ish integer scaled into a wide magnitude range, plus
    // the special values a conductance/eps field can legally hold.
    prop_oneof![
        (1u64..u64::MAX).prop_map(|bits| f64::from_bits(bits % (1u64 << 62)) % 1e12),
        Just(0.0),
        Just(1e-9),
        Just(0.5),
        Just(f64::INFINITY),
    ]
}

/// The nine bytes protocol version 1 appended to the parameters of tags
/// 0/1/2/4: `u8 mode` (0 auto / 1 push / 2 pull) + `u64 dense_denom`.
fn arb_v1_direction() -> impl Strategy<Value = Vec<u8>> {
    (0u8..3, 1u64..1000).prop_map(|(mode, dense_denom)| {
        let mut bytes = vec![mode];
        bytes.extend_from_slice(&dense_denom.to_le_bytes());
        bytes
    })
}

fn arb_algo() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        (1usize..100, arb_f64())
            .prop_map(|(t_max, eps)| Algorithm::Nibble(NibbleParams { t_max, eps })),
        (arb_f64(), arb_f64(), 0u8..2, arb_f64(), arb_f64()).prop_map(
            |(alpha, eps, rule, beta, dense_frac)| {
                Algorithm::PrNibble(PrNibbleParams {
                    alpha,
                    eps,
                    rule: if rule == 0 {
                        PushRule::Original
                    } else {
                        PushRule::Optimized
                    },
                    beta,
                    dense_frac,
                })
            }
        ),
        (arb_f64(), 1usize..64, arb_f64())
            .prop_map(|(t, n_levels, eps)| Algorithm::Hkpr(HkprParams { t, n_levels, eps })),
        (arb_f64(), 1usize..100, 1usize..100_000, 0u64..u64::MAX).prop_map(
            |(t, max_len, walks, rng_seed)| {
                Algorithm::RandHkpr(RandHkprParams {
                    t,
                    max_len,
                    walks,
                    rng_seed,
                })
            }
        ),
        (1usize..1000, arb_f64(), 0u64..u64::MAX).prop_map(
            |(max_steps, target_conductance, rng_seed)| {
                Algorithm::Evolving(EvolvingParams {
                    max_steps,
                    target_conductance,
                    rng_seed,
                })
            }
        ),
    ]
}

fn arb_budget() -> impl Strategy<Value = QueryBudget> {
    (
        0u8..2,
        0u64..u64::MAX,
        0u8..2,
        0u64..1 << 40,
        0u8..2,
        0u64..1 << 40,
    )
        .prop_map(|(has_d, d, has_p, p, has_e, e)| {
            let mut b = QueryBudget::unlimited();
            if has_d == 1 {
                b = b.with_deadline(Duration::from_nanos(d));
            }
            if has_p == 1 {
                b = b.with_max_pushed_mass_updates(p);
            }
            if has_e == 1 {
                b = b.with_max_edges_traversed(e);
            }
            b
        })
}

fn arb_tenant() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..36, 1..24).prop_map(|chars| {
        chars
            .into_iter()
            .map(|c| char::from_digit(c as u32, 36).unwrap())
            .collect()
    })
}

fn arb_request() -> impl Strategy<Value = QueryRequest> {
    (
        arb_tenant(),
        0u8..2,
        prop::collection::vec(0u32..1 << 30, 1..20),
        arb_algo(),
        arb_budget(),
    )
        .prop_map(|(tenant, prio, seed, algo, budget)| QueryRequest {
            tenant,
            priority: Priority::from_u8(prio).unwrap(),
            query: Query {
                seed: Seed::set(seed),
                algo,
                budget,
            },
        })
}

fn arb_stats() -> impl Strategy<Value = DiffusionStats> {
    (
        0u64..1 << 50,
        0u64..1 << 50,
        0u64..1 << 50,
        0u64..1 << 50,
        arb_f64(),
    )
        .prop_map(
            |(iterations, pushes, pushed_volume, edges_traversed, residual_mass)| DiffusionStats {
                iterations,
                pushes,
                pushed_volume,
                edges_traversed,
                residual_mass,
            },
        )
}

fn arb_result() -> impl Strategy<Value = ClusterResult> {
    (
        prop::collection::vec(0u32..1 << 30, 0..40),
        arb_f64(),
        prop::collection::vec((0u32..1 << 30, arb_f64()), 0..60),
        arb_stats(),
        prop::collection::vec(0u32..1 << 30, 0..60),
        prop::collection::vec(arb_f64(), 0..60),
        arb_f64(),
    )
        .prop_map(
            |(cluster, conductance, p, stats, order, conductances, best_conductance)| {
                let best_size = order.len() / 2;
                ClusterResult {
                    cluster,
                    conductance,
                    diffusion: Diffusion { p, stats },
                    sweep: SweepCut {
                        order,
                        conductances,
                        best_size,
                        best_conductance,
                    },
                }
            },
        )
}

fn arb_partial() -> impl Strategy<Value = WirePartial> {
    (
        arb_stats(),
        prop::collection::vec(0u32..1 << 30, 0..20),
        arb_f64(),
    )
        .prop_map(|(stats, cluster, conductance)| WirePartial {
            stats,
            cluster,
            conductance,
        })
}

fn arb_retry() -> impl Strategy<Value = Option<Duration>> {
    (0u8..2, 0u64..1 << 40).prop_map(|(has, n)| (has == 1).then(|| Duration::from_nanos(n)))
}

fn arb_error() -> impl Strategy<Value = WireError> {
    prop_oneof![
        (0usize..3, arb_partial()).prop_map(|(i, partial)| {
            let trip = [Trip::Deadline, Trip::WorkBudget, Trip::Cancelled][i];
            WireError::Tripped(Tripped { trip, partial })
        }),
        (0u32..u32::MAX, 0u64..1 << 40).prop_map(|(vertex, num_vertices)| WireError::InvalidSeed {
            vertex,
            num_vertices
        }),
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40).prop_map(|(b, i, r)| {
            WireError::WorkspaceBudgetExceeded {
                budget_bytes: b,
                in_flight_bytes: i,
                requested_bytes: r,
            }
        }),
        (0u64..1 << 30, 0u64..1 << 30, arb_retry()).prop_map(|(in_flight, limit, retry_after)| {
            WireError::Overloaded {
                in_flight,
                limit,
                retry_after,
            }
        }),
        (0u64..1 << 30, 0u64..1 << 30, arb_retry()).prop_map(|(queued, cap, retry_after)| {
            WireError::QueueFull {
                queued,
                cap,
                retry_after,
            }
        }),
        arb_tenant().prop_map(|tenant| WireError::UnknownGraph { tenant }),
        Just(WireError::ShuttingDown),
        arb_tenant().prop_map(|message| WireError::Unsupported { message }),
        (arb_tenant(), arb_tenant())
            .prop_map(|(param, requirement)| WireError::InvalidParams { param, requirement }),
    ]
}

// ---------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_request_roundtrips(req in arb_request()) {
        let bytes = encode_query_request(&req);
        let back = decode_query_request(&bytes).expect("valid encoding must decode");
        // Core param structs lack PartialEq; byte equality of the
        // re-encoding is the stronger statement anyway.
        prop_assert_eq!(encode_query_request(&back), bytes);
        prop_assert_eq!(back.tenant, req.tenant.clone());
        prop_assert_eq!(back.priority as u8, req.priority as u8);
    }

    /// The budget fields that live only in the process — a fault plan, a
    /// cancellation token, a boundary hook — never cross the wire: the
    /// encoding of a request carrying all three is the encoding without
    /// them, and the decoded budget has none of them. So a remote client
    /// cannot arm a fault.
    #[test]
    fn process_local_budget_fields_never_cross_the_wire(
        req in arb_request(),
        after_ticks in 0u64..100,
        trip in 0usize..3,
    ) {
        let kind = [Trip::Deadline, Trip::WorkBudget, Trip::Cancelled][trip];
        let mut armed = req.clone();
        armed.query.budget = req
            .query
            .budget
            .clone()
            .with_fault(FaultPlan { after_ticks, kind })
            .with_cancel(CancelToken::new())
            .with_hook(BoundaryHook::new(|| {}));
        let bytes = encode_query_request(&armed);
        prop_assert_eq!(&bytes, &encode_query_request(&req));
        let back = decode_query_request(&bytes).expect("valid encoding must decode");
        prop_assert!(back.query.budget.fault.is_none());
        prop_assert!(back.query.budget.cancel.is_none());
        prop_assert!(back.query.budget.hook.is_none());
    }

    /// Version 1 carried a direction after the parameters of four
    /// algorithms; version 2 does not. A version-1 `QUERY` is refused at
    /// the frame header, whatever direction it carries — which matters,
    /// because its body alone is not the request: the version-2 decoder
    /// reads the direction bytes as the start of the budget.
    #[test]
    fn a_version_1_query_is_refused_at_the_frame_header(
        t_max in 1usize..100,
        eps in arb_f64(),
        direction in arb_v1_direction(),
        id in 0u32..u32::MAX,
    ) {
        let req = QueryRequest {
            tenant: "g".into(),
            priority: Priority::Interactive,
            query: Query::new(Seed::single(0), Algorithm::Nibble(NibbleParams { t_max, eps })),
        };
        // An unlimited budget is three absent options — the last three
        // bytes; version 1 put the direction just before them.
        let v2 = encode_query_request(&req);
        let (params, budget) = v2.split_at(v2.len() - 3);
        let v1 = [params, &direction, budget].concat();

        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Query, id, &v1).unwrap();
        buf[4] = 1;
        prop_assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::UnsupportedVersion(1))
        ));
        if let Ok(misparsed) = decode_query_request(&v1) {
            prop_assert_ne!(encode_query_request(&misparsed), v2);
        }
    }

    #[test]
    fn result_roundtrips_bitwise(res in arb_result()) {
        let bytes = encode_result(&res);
        let back = decode_result(&bytes).expect("valid encoding must decode");
        prop_assert_eq!(encode_result(&back), bytes);
        // Spot-check bitwise f64 fidelity directly.
        prop_assert_eq!(back.conductance.to_bits(), res.conductance.to_bits());
        prop_assert_eq!(back.diffusion.p.len(), res.diffusion.p.len());
    }

    #[test]
    fn error_roundtrips(err in arb_error()) {
        let bytes = encode_error(&err);
        let back = decode_error(&bytes).expect("valid encoding must decode");
        prop_assert_eq!(&back, &err);
        prop_assert_eq!(encode_error(&back), bytes);
    }

    #[test]
    fn truncated_payloads_error_not_panic(req in arb_request(), res in arb_result(), err in arb_error()) {
        // Every strict prefix of a valid encoding must be rejected by
        // its own decoder with a typed error (no panic). Cut points are
        // sampled to keep the case fast; the last byte is always cut.
        fn check<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, ProtocolError>) -> bool {
            let step = (bytes.len() / 23).max(1);
            (0..bytes.len())
                .step_by(step)
                .chain([bytes.len() - 1])
                .all(|cut| decode(&bytes[..cut]).is_err())
        }
        prop_assert!(check(&encode_query_request(&req), decode_query_request));
        prop_assert!(check(&encode_result(&res), decode_result));
        prop_assert!(check(&encode_error(&err), decode_error));
    }

    #[test]
    fn garbage_bytes_never_panic(bytes in prop::collection::vec(0u16..256, 0..300)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        // Whatever happens, decoding arbitrary bytes returns, it does
        // not panic or over-allocate.
        let _ = decode_query_request(&bytes);
        let _ = decode_result(&bytes);
        let _ = decode_error(&bytes);
        let _ = decode_names(&bytes);
    }

    #[test]
    fn names_roundtrip(names in prop::collection::vec(arb_tenant(), 0..20)) {
        let bytes = encode_names(&names);
        prop_assert_eq!(decode_names(&bytes).unwrap(), names);
    }

    #[test]
    fn frames_roundtrip_and_corruption_is_typed(
        payload in prop::collection::vec(0u16..256, 0..200),
        id in 0u32..u32::MAX,
        flip in 0usize..1000,
    ) {
        let payload: Vec<u8> = payload.into_iter().map(|b| b as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Query, id, &payload).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(frame.kind as u8, FrameKind::Query as u8);
        prop_assert_eq!(frame.id, id);
        prop_assert_eq!(frame.payload, payload);

        // Flip one byte anywhere in the frame: the reader must return a
        // typed error or a frame (possibly with different id/payload if
        // the flip hit those), never panic.
        let pos = flip % buf.len();
        buf[pos] ^= 0x80;
        let _ = read_frame(&mut buf.as_slice());
    }
}

// ---------------------------------------------------------------------
// Deterministic adversarial cases
// ---------------------------------------------------------------------

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let mut header = Vec::new();
    header.extend_from_slice(&frame::MAGIC);
    header.push(frame::VERSION);
    header.push(FrameKind::Query as u8);
    header.extend_from_slice(&[0, 0]);
    header.extend_from_slice(&7u32.to_le_bytes());
    header.extend_from_slice(&(u32::MAX).to_le_bytes()); // 4 GiB claim
    match read_frame(&mut header.as_slice()) {
        Err(ProtocolError::Oversized { len, max }) => {
            assert_eq!(len, u32::MAX as u64);
            assert_eq!(max, frame::MAX_PAYLOAD as u64);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}

/// A trip travels as error code 1, 2 or 3 — one per `Trip`, in the
/// order `PROTOCOL.md` lists them — followed by the partial, and decodes
/// back to the trip it left as.
#[test]
fn trip_error_codes_are_one_two_three() {
    let partial = WirePartial {
        stats: DiffusionStats::default(),
        cluster: vec![3, 1],
        conductance: 0.25,
    };
    let codes = [
        (1u8, Trip::Deadline),
        (2, Trip::WorkBudget),
        (3, Trip::Cancelled),
    ];
    for (code, trip) in codes {
        let partial = partial.clone();
        let bytes = encode_error(&WireError::Tripped(Tripped { trip, partial }));
        assert_eq!(bytes[0], code);
        match decode_error(&bytes) {
            Ok(WireError::Tripped(t)) => assert_eq!(t.trip, trip),
            other => panic!("code {code}: {other:?}"),
        }
    }
}

#[test]
fn unknown_error_code_is_malformed() {
    assert!(matches!(
        decode_error(&[42]),
        Err(ProtocolError::Malformed { .. })
    ));
    assert!(matches!(
        decode_error(&[]),
        Err(ProtocolError::Malformed { .. })
    ));
}

#[test]
fn seed_order_is_canonicalized_not_lost() {
    // Seed::set sorts/dedups; the wire must carry the canonical form so
    // re-encoding is stable.
    let req = QueryRequest {
        tenant: "g".into(),
        priority: Priority::Interactive,
        query: Query::new(
            Seed::set(vec![9, 3, 3, 7]),
            Algorithm::Nibble(NibbleParams::default()),
        ),
    };
    let back = decode_query_request(&encode_query_request(&req)).unwrap();
    assert_eq!(back.query.seed.vertices(), &[3, 7, 9]);
}
