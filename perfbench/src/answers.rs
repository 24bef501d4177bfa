//! Output checks on service answers.

use std::collections::BTreeMap;

use ruby_server::{MapResponse, ResponseSource};

/// One checked answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The store key the service answered for.
    pub key: u64,
    /// Warm (`Store`) or cold (`Search`).
    pub source: ResponseSource,
    /// The answer's objective cost.
    pub cost: f64,
    /// Evaluations behind the stored mapping.
    pub evaluations: u64,
    /// The response with its timing and provenance removed: two answers
    /// for one key must agree on this byte for byte.
    pub canonical: String,
}

/// Parses a response line and checks it is a terminal, non-degraded
/// answer carrying a mapping.
///
/// # Errors
///
/// Describes the first problem: an error line, an unparseable line, or
/// a `partial`/`shed`/degraded answer.
pub fn parse_answer(line: &str) -> Result<Answer, String> {
    let value: serde::Value =
        serde_json::from_str(line).map_err(|e| format!("unparseable answer: {e}"))?;
    if let Some(error) = value.get("error") {
        return Err(format!("error answer: {error:?}"));
    }
    let mut response: MapResponse =
        serde::Deserialize::from_value(&value).map_err(|e| format!("malformed answer: {e}"))?;
    if !matches!(
        response.source,
        ResponseSource::Search | ResponseSource::Store
    ) {
        return Err(format!(
            "non-terminal answer: source {}",
            response.source.name()
        ));
    }
    if response.degraded || response.mapping.is_none() {
        return Err("degraded answer or answer without a mapping".to_owned());
    }
    let source = response.source;
    response.micros = 0;
    response.source = ResponseSource::Store;
    let canonical = serde_json::to_string(&serde::Serialize::to_value(&response))
        .map_err(|e| format!("answer does not re-serialize: {e}"))?;
    Ok(Answer {
        key: response.key,
        source,
        cost: response.cost,
        evaluations: response.evaluations,
        canonical,
    })
}

/// The first answer seen for every key; every later answer for the key
/// must match it exactly.
#[derive(Debug, Default)]
pub struct AnswerBook {
    by_key: BTreeMap<u64, String>,
}

impl AnswerBook {
    /// Checks `line` and compares it with the earlier answer for its
    /// key, recording it when it is the first.
    ///
    /// # Errors
    ///
    /// Fails on everything [`parse_answer`] rejects, on a cold answer
    /// where `warm_only` demands a store hit, and on an answer that
    /// differs from the earlier one for its key.
    pub fn check(&mut self, line: &str, warm_only: bool) -> Result<Answer, String> {
        let answer = parse_answer(line)?;
        if warm_only && answer.source != ResponseSource::Store {
            return Err(format!(
                "key {:016x}: expected a warm answer, got a cold one",
                answer.key
            ));
        }
        match self.by_key.get(&answer.key) {
            Some(first) if *first != answer.canonical => Err(format!(
                "key {:016x}: answer differs from the first answer for the key",
                answer.key
            )),
            Some(_) => Ok(answer),
            None => {
                self.by_key.insert(answer.key, answer.canonical.clone());
                Ok(answer)
            }
        }
    }

    /// Distinct keys answered so far.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no answer was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }
}
