//! Properties of the trace-document format (`obs::trace`): whatever a
//! [`TraceStore`] renders parses back to the spans it was rendered
//! from, in both document shapes, and the parser answers arbitrary
//! bytes, truncations and single-byte mutations of valid documents
//! with a value or an `Err` — never a panic, never a stack overflow.

use ipactive::obs::trace::{parse_trace_doc, parse_traces, TraceStore};
use ipactive::obs::{SpanRecord, TraceContext, TraceId};
use proptest::prelude::*;

/// Span text over the whole scalar range, biased towards the ASCII
/// block where the characters JSON must escape live (quotes,
/// backslashes, control codes).
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec((any::<u32>(), 0u8..4), 0..10).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(c, kind)| {
                let code = if kind == 0 { c % 0x11_0000 } else { c % 0x80 };
                char::from_u32(code).unwrap_or('\u{fffd}')
            })
            .collect()
    })
}

/// A store filled through its own `record`: a few traces, parents both
/// inside and ahead of what is recorded so far (a context shipped from
/// another process), ids over the whole 64-bit range.
fn arb_store() -> impl Strategy<Value = TraceStore> {
    prop::collection::vec((0usize..4, any::<u64>(), 0u64..60, arb_text(), arb_text()), 0..24)
        .prop_map(|records| {
            let mut ids = [1u64, 0xABBA, u64::MAX, 0];
            let mut store = TraceStore::default();
            for (slot, id, parent, name, detail) in records {
                if ids[slot] == 0 {
                    ids[slot] = id.max(1);
                }
                let ctx = TraceContext { trace: TraceId(ids[slot]), span: parent };
                store.record(ctx, name, detail);
            }
            store
        })
}

fn spans_of(store: &TraceStore) -> Vec<(u64, Vec<SpanRecord>)> {
    store.ids().into_iter().map(|id| (id, store.spans(id).unwrap().to_vec())).collect()
}

/// Bytes as the parser's callers hand them over: files are read with
/// `read_to_string`, so invalid UTF-8 never reaches it; lossy decoding
/// keeps every other byte pattern in play.
fn feed(bytes: &[u8]) -> Result<Vec<(u64, Vec<SpanRecord>)>, String> {
    parse_traces(&String::from_utf8_lossy(bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rendered_documents_parse_back_to_their_spans(store in arb_store()) {
        let expected = spans_of(&store);
        prop_assert_eq!(parse_traces(&store.traces_json()), Ok(expected.clone()));
        for (id, spans) in expected {
            let one = store.trace_json(id).expect("listed id renders");
            prop_assert_eq!(parse_trace_doc(&one), Ok((id, spans.clone())));
            prop_assert_eq!(parse_traces(&one), Ok(vec![(id, spans)]));
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(any::<u8>(), 0..512),
        picks in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = feed(&raw);
        // The same, drawn from the bytes the grammar branches on, so
        // random input gets past the first token.
        const ALPHABET: &[u8] = b"{}[]\":,\\ \n-+.0123456789eEaflnrstu\x01\xc3\xa9";
        let json_like: Vec<u8> =
            picks.iter().map(|&p| ALPHABET[p as usize % ALPHABET.len()]).collect();
        let _ = feed(&json_like);
    }

    #[test]
    fn truncations_are_errors_and_mutations_never_panic(
        store in arb_store(),
        flips in prop::collection::vec((any::<u32>(), 1u8..=255), 1..32),
    ) {
        let docs: Vec<String> = std::iter::once(store.traces_json())
            .chain(store.ids().first().map(|&id| store.trace_json(id).unwrap()))
            .collect();
        for doc in &docs {
            // Without its trailing newline the document ends on the
            // brace that closes it: no strict prefix is a document.
            let body = doc.trim_end().as_bytes();
            for cut in 0..body.len() {
                prop_assert!(feed(&body[..cut]).is_err(), "prefix of {} bytes parsed", cut);
            }
            for &(at, mask) in &flips {
                let mut damaged = body.to_vec();
                damaged[at as usize % body.len()] ^= mask;
                let _ = feed(&damaged);
            }
        }
    }
}

#[test]
fn hostile_nesting_is_refused_without_recursing() {
    let deep = format!("{{\"traces\": {}", "[".repeat(1 << 20));
    assert!(parse_traces(&deep).unwrap_err().contains("too deep"));
    let deep = format!("{{\"trace_id\": \"1\", \"spans\": [{}", "{\"seq\":".repeat(1 << 18));
    assert!(parse_trace_doc(&deep).is_err());
}
