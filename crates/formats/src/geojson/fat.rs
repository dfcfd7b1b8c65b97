//! Fully-associative GeoJSON parsing over arbitrary block splits.
//!
//! A block is lexed speculatively from all three string states
//! ([`super::lexer`]); each speculative token tape is then structurally
//! scanned into a [`GeoFragment`]:
//!
//! * tokens before the first *feature synchronisation point* (an `{`
//!   followed by `"type":"Feature"`) form the unresolved **head** — they
//!   belong to a feature that started in an earlier block;
//! * complete features between sync points are parsed locally;
//! * tokens of a trailing incomplete feature form the **tail**.
//!
//! Merging two fragments concatenates the left tail with the right
//! head and parses the spanning run — the token-level incarnation of
//! the periodically-flushing merge rule (§3.3), with feature
//! boundaries as flush symbols. The lexer speculation is resolved by
//! relation composition over the three `(start → final)` entries, as
//! in §3.2's pipeline composition.
//!
//! Known limitation (shared with the paper's §3.5 discussion): a
//! metadata object containing a literal `"type":"Feature"` member
//! would be mistaken for a sync point; the merge detects the resulting
//! desynchronisation and reports [`ParseError::Desync`] rather than
//! returning wrong results.

use crate::feature::{MetadataFilter, RawFeature};
use crate::points::{parse_float, parse_id_span};
use crate::split::Block;
use crate::{ParseError, MAX_NESTING};
use atgis_geometry::Geometry;

use super::coords::{interpret_geometry, CoordBuf};
use super::lexer::{lex_block, Token, TokenKind, STATE_OUT};

/// The per-block fragment: one [`GeoFragment`] per speculated lexer
/// start state, plus the lexer state relation.
#[derive(Debug, Clone)]
pub struct BlockFragment {
    /// `(lexer start, lexer final, parse fragment)` triples.
    entries: Vec<(u8, u8, GeoFragment)>,
}

/// The structural-parse fragment for one token tape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GeoFragment {
    /// Tokens before the first sync point (owned by an earlier block's
    /// feature).
    head: Vec<Token>,
    /// Features completed within this fragment.
    features: Vec<RawFeature>,
    /// Tokens of the trailing incomplete feature (starts at its `{`).
    tail: Vec<Token>,
    /// Whether a sync point was found.
    synced: bool,
    /// Set when a spanning parse failed — only fatal if this fragment
    /// chain is the one selected by the true lexer start state.
    poisoned: Option<ParseError>,
}

/// Lexes and structurally scans one block.
pub fn process_block(
    input: &[u8],
    block: Block,
    filter: &MetadataFilter,
) -> Result<BlockFragment, ParseError> {
    let lex = lex_block(block.slice(input), block.start as u64);
    let entries = lex
        .into_entries()
        .into_iter()
        .map(|(start, fin, tokens)| (start, fin, GeoFragment::from_tokens(input, &tokens, filter)))
        .collect();
    Ok(BlockFragment { entries })
}

impl BlockFragment {
    /// Drains the locally-completed features of every speculative
    /// entry, returning `(lexer_start_state, features)` pairs. Used by
    /// pipeline composition (§3.2): downstream query transducers keep
    /// one aggregate per start state and absorb features as soon as a
    /// block (or merge) completes them, so feature buffers never
    /// accumulate across the whole input.
    pub fn drain_features(&mut self) -> Vec<(u8, Vec<RawFeature>)> {
        self.entries
            .iter_mut()
            .map(|(s, _, g)| (*s, std::mem::take(&mut g.features)))
            .collect()
    }

    /// The lexer state relation: `(start, final)` per entry. Pipeline
    /// composition uses this to chain downstream aggregates across a
    /// merge before the fragment is consumed.
    pub fn entry_finals(&self) -> Vec<(u8, u8)> {
        self.entries.iter().map(|(s, f, _)| (*s, *f)).collect()
    }

    /// Composes two block fragments: lexer relation composition plus
    /// parse-fragment merging (§3.2).
    pub fn merge(
        self,
        other: BlockFragment,
        input: &[u8],
        filter: &MetadataFilter,
    ) -> Result<BlockFragment, ParseError> {
        let mut entries = Vec::with_capacity(self.entries.len());
        for (start, mid, left) in self.entries {
            let (_, fin, right) = other
                .entries
                .iter()
                .find(|(s, _, _)| *s == mid)
                .ok_or(ParseError::Desync { offset: 0 })?;
            entries.push((start, *fin, left.merge(right.clone(), input, filter)));
        }
        Ok(BlockFragment { entries })
    }

    /// Resolves the speculation against the document's true starting
    /// state (outside any string) and emits the final feature stream.
    pub fn finalize(
        self,
        input: &[u8],
        filter: &MetadataFilter,
    ) -> Result<Vec<RawFeature>, ParseError> {
        let (_, _, frag) = self
            .entries
            .into_iter()
            .find(|(s, _, _)| *s == STATE_OUT)
            .ok_or(ParseError::Desync { offset: 0 })?;
        frag.finalize(input, filter)
    }
}

impl GeoFragment {
    /// Scans a token tape: locate the first sync point, parse complete
    /// features, retain head/tail token runs.
    pub fn from_tokens(input: &[u8], tokens: &[Token], filter: &MetadataFilter) -> GeoFragment {
        match find_sync(input, tokens, 0) {
            None => GeoFragment {
                head: tokens.to_vec(),
                synced: false,
                ..GeoFragment::default()
            },
            Some(sync) => {
                let (features, tail, poisoned) = parse_run(input, &tokens[sync..], filter);
                GeoFragment {
                    head: tokens[..sync].to_vec(),
                    features,
                    tail,
                    synced: true,
                    poisoned,
                }
            }
        }
    }

    /// The ⊗ merge. `self` covers earlier input than `other`.
    pub fn merge(
        mut self,
        mut other: GeoFragment,
        input: &[u8],
        filter: &MetadataFilter,
    ) -> GeoFragment {
        let poisoned = self.poisoned.or(other.poisoned);
        match (self.synced, other.synced) {
            (false, false) => {
                self.head.append(&mut other.head);
                self.poisoned = poisoned;
                self
            }
            (false, true) => {
                // Everything we hold prefixes the right head.
                self.head.append(&mut other.head);
                other.head = self.head;
                other.poisoned = poisoned;
                other
            }
            (true, false) => {
                // The right block continues our trailing feature.
                self.tail.append(&mut other.head);
                self.poisoned = poisoned;
                self
            }
            (true, true) => {
                // Parse the boundary-spanning run: left tail ++ right
                // head must resolve into zero or more complete
                // features.
                let mut spanning = std::mem::take(&mut self.tail);
                spanning.append(&mut other.head);
                let (mid, leftover, poison2) = parse_run(input, &spanning, filter);
                let poisoned = poisoned.or(poison2).or(leftover_desync(&leftover));
                self.features.extend(mid);
                self.features.append(&mut other.features);
                GeoFragment {
                    head: self.head,
                    features: self.features,
                    tail: other.tail,
                    synced: true,
                    poisoned,
                }
            }
        }
    }

    /// Final resolution at the document level: the head must contain
    /// only the collection preamble; a non-empty tail must parse into
    /// complete features (the document's last feature plus epilogue).
    pub fn finalize(
        mut self,
        input: &[u8],
        filter: &MetadataFilter,
    ) -> Result<Vec<RawFeature>, ParseError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        let mut out = Vec::new();
        if !self.synced {
            // No feature anywhere (empty collection) — head holds only
            // preamble/epilogue tokens.
            let (features, leftover, poison) = parse_run(input, &self.head, filter);
            if let Some(e) = poison.or(leftover_desync(&leftover)) {
                return Err(e);
            }
            return Ok(features);
        }
        // Head: preamble only — there must be no feature hidden in it.
        let (pre, pre_left, pre_poison) = parse_run(input, &self.head, filter);
        if let Some(e) = pre_poison.or(leftover_desync(&pre_left)) {
            return Err(e);
        }
        out.extend(pre);
        out.append(&mut self.features);
        let (tail_feats, leftover, poison) = parse_run(input, &self.tail, filter);
        if let Some(e) = poison.or(leftover_desync(&leftover)) {
            return Err(e);
        }
        out.extend(tail_feats);
        Ok(out)
    }
}

/// Tokens left over after a run that should have completed: the
/// speculation went wrong.
fn leftover_desync(leftover: &[Token]) -> Option<ParseError> {
    leftover
        .first()
        .map(|t| ParseError::Desync { offset: t.pos })
}

/// True when `tokens[i..]` begins the `{"type":"Feature"` pattern.
/// Returns `None` when there are too few tokens to decide (treated as
/// "no" by scanning — the undecided tokens flow into head/tail runs).
fn is_feature_start(input: &[u8], tokens: &[Token], i: usize) -> bool {
    if i + 6 > tokens.len() {
        return false; // Needs 6 tokens: { " " : " "
    }
    tokens[i].kind == TokenKind::ObjOpen
        && tokens[i + 1].kind == TokenKind::StrStart
        && tokens[i + 2].kind == TokenKind::StrEnd
        && str_span(input, tokens[i + 1], tokens[i + 2]) == Some("type")
        && tokens[i + 3].kind == TokenKind::Colon
        && tokens[i + 4].kind == TokenKind::StrStart
        && tokens[i + 5].kind == TokenKind::StrEnd
        && str_span(input, tokens[i + 4], tokens[i + 5]) == Some("Feature")
}

fn find_sync(input: &[u8], tokens: &[Token], from: usize) -> Option<usize> {
    (from..tokens.len()).find(|&i| is_feature_start(input, tokens, i))
}

fn str_span(input: &[u8], start: Token, end: Token) -> Option<&str> {
    let s = start.pos as usize + 1;
    let e = end.pos as usize;
    input.get(s..e).and_then(|b| std::str::from_utf8(b).ok())
}

/// Parses features from a token run that starts at a feature boundary.
/// Returns `(features, leftover_tail_tokens, poison)`; leftover
/// tokens begin at an incomplete feature's `{`. Separator tokens
/// between features (`,`, `]`, `}` of the enclosing collection) are
/// skipped. One coordinates buffer serves every feature of the run.
fn parse_run(
    input: &[u8],
    tokens: &[Token],
    filter: &MetadataFilter,
) -> (Vec<RawFeature>, Vec<Token>, Option<ParseError>) {
    let mut features = Vec::new();
    let mut poisoned = None;
    let mut coords = CoordBuf::default();
    let mut i = 0;
    while i < tokens.len() {
        if is_feature_start(input, tokens, i) {
            match parse_feature_tokens(input, tokens, i, filter, &mut coords) {
                Ok((feature, next)) => {
                    if let Some(f) = feature {
                        features.push(f);
                    }
                    i = next;
                }
                Err(TokenParseError::Incomplete) => {
                    return (features, tokens[i..].to_vec(), poisoned);
                }
                Err(TokenParseError::Invalid(offset)) => {
                    poisoned = poisoned.or(Some(ParseError::Desync { offset }));
                    i += 1;
                }
                Err(TokenParseError::TooDeep(offset)) => {
                    poisoned = poisoned.or(Some(ParseError::TooDeep { offset }));
                    i += 1;
                }
            }
        } else if tokens[i].kind == TokenKind::ObjOpen && i + 6 > tokens.len() {
            // Possibly a feature start whose identifying tokens lie in
            // the next block: defer.
            return (features, tokens[i..].to_vec(), poisoned);
        } else {
            i += 1; // Separator / preamble token.
        }
    }
    (features, Vec::new(), poisoned)
}

enum TokenParseError {
    /// Token tape ended mid-feature; resume after merge.
    Incomplete,
    /// Structurally invalid at the given offset.
    Invalid(u64),
    /// Nested deeper than [`MAX_NESTING`] at the given offset.
    TooDeep(u64),
}

type TpResult<T> = Result<T, TokenParseError>;

/// Token-stream cursor for the structural feature parser.
struct TokCursor<'a> {
    input: &'a [u8],
    tokens: &'a [Token],
    i: usize,
}

impl<'a> TokCursor<'a> {
    fn peek(&self) -> Option<Token> {
        self.tokens.get(self.i).copied()
    }

    fn next(&mut self) -> TpResult<Token> {
        let t = self.peek().ok_or(TokenParseError::Incomplete)?;
        self.i += 1;
        Ok(t)
    }

    fn expect(&mut self, kind: TokenKind) -> TpResult<Token> {
        let t = self.next()?;
        if t.kind == kind {
            Ok(t)
        } else {
            Err(TokenParseError::Invalid(t.pos))
        }
    }

    /// Parses a string value, returning its contents.
    fn parse_string(&mut self) -> TpResult<&'a str> {
        let s = self.expect(TokenKind::StrStart)?;
        let e = self.expect(TokenKind::StrEnd)?;
        str_span(self.input, s, e).ok_or(TokenParseError::Invalid(s.pos))
    }

    /// The byte span of a scalar literal between the previous token
    /// (exclusive) and the next token (exclusive). Does not consume
    /// the next token.
    fn scalar_span(&self, prev_end: u64) -> TpResult<(usize, usize)> {
        let next = self.peek().ok_or(TokenParseError::Incomplete)?;
        Ok((prev_end as usize + 1, next.pos as usize))
    }

    /// Skips one JSON value at the token level. `after` is the
    /// position of the token that preceded the value (for scalars,
    /// which own no tokens).
    fn skip_value(&mut self) -> TpResult<()> {
        match self.peek() {
            None => Err(TokenParseError::Incomplete),
            Some(t) => match t.kind {
                TokenKind::StrStart => {
                    self.next()?;
                    self.expect(TokenKind::StrEnd)?;
                    Ok(())
                }
                TokenKind::ObjOpen | TokenKind::ArrOpen => {
                    // Balanced skip, bounded like the PAT parser's.
                    let mut depth = 0usize;
                    loop {
                        let t = self.next()?;
                        match t.kind {
                            TokenKind::ObjOpen | TokenKind::ArrOpen => {
                                depth += 1;
                                if depth > MAX_NESTING {
                                    return Err(TokenParseError::TooDeep(t.pos));
                                }
                            }
                            TokenKind::ObjClose | TokenKind::ArrClose => {
                                depth -= 1;
                                if depth == 0 {
                                    return Ok(());
                                }
                            }
                            _ => {}
                        }
                    }
                }
                // Scalar: owns no tokens; nothing to consume.
                _ => Ok(()),
            },
        }
    }
}

/// Parses one feature starting at token index `start` (which satisfies
/// [`is_feature_start`]). Returns the feature (None when filtered out)
/// and the index of the first token after it.
fn parse_feature_tokens(
    input: &[u8],
    tokens: &[Token],
    start: usize,
    filter: &MetadataFilter,
    coords: &mut CoordBuf,
) -> TpResult<(Option<RawFeature>, usize)> {
    coords.clear();
    let mut c = TokCursor {
        input,
        tokens,
        i: start,
    };
    let open = c.expect(TokenKind::ObjOpen)?;
    let mut geometry: Option<Geometry> = None;
    let mut id = 0u64;
    let mut tags_ok = !filter.needs_tags();
    loop {
        let key = c.parse_string()?;
        let colon = c.expect(TokenKind::Colon)?;
        match key {
            "type" => {
                let t = c.parse_string()?;
                if t != "Feature" {
                    return Err(TokenParseError::Invalid(colon.pos));
                }
            }
            "geometry" => geometry = Some(parse_geometry_tokens(&mut c, coords, 1)?),
            "id" => {
                let (s, e) = c.scalar_span(colon.pos)?;
                id = parse_id_span(input, s, e).map_err(|_| TokenParseError::Invalid(colon.pos))?;
            }
            "properties" => {
                let open = c.peek().ok_or(TokenParseError::Incomplete)?;
                let pair_match = parse_properties_tokens(&mut c, filter)?;
                tags_ok = if filter.needs_raw_properties() {
                    // The token after the object's close was not
                    // consumed; the previous token is the ObjClose.
                    let close = c.tokens[c.i - 1];
                    let raw = input
                        .get(open.pos as usize..close.pos as usize + 1)
                        .ok_or(TokenParseError::Invalid(open.pos))?;
                    filter.accepts_properties_json(raw)
                } else {
                    pair_match || tags_ok
                };
            }
            _ => c.skip_value()?,
        }
        let sep = c.next()?;
        match sep.kind {
            TokenKind::Comma => continue,
            TokenKind::ObjClose => {
                let geometry = geometry.ok_or(TokenParseError::Invalid(sep.pos))?;
                let len = (sep.pos + 1 - open.pos) as u32;
                let feature = (filter.accepts_id(id) && tags_ok).then_some(RawFeature {
                    id,
                    geometry,
                    offset: open.pos,
                    len,
                });
                return Ok((feature, c.i));
            }
            _ => return Err(TokenParseError::Invalid(sep.pos)),
        }
    }
}

fn parse_properties_tokens(c: &mut TokCursor<'_>, filter: &MetadataFilter) -> TpResult<bool> {
    let open = c.expect(TokenKind::ObjOpen)?;
    let mut matched = !filter.needs_tags();
    // Empty object?
    if matches!(c.peek().map(|t| t.kind), Some(TokenKind::ObjClose)) {
        c.next()?;
        return Ok(matched);
    }
    let _ = open;
    loop {
        let key = c.parse_string()?;
        let _colon = c.expect(TokenKind::Colon)?;
        if matches!(c.peek().map(|t| t.kind), Some(TokenKind::StrStart)) {
            let value = c.parse_string()?;
            if filter.needs_tags() && filter.accepts_tags(std::iter::once((key, value))) {
                matched = true;
            }
        } else {
            c.skip_value()?;
        }
        let sep = c.next()?;
        match sep.kind {
            TokenKind::Comma => continue,
            TokenKind::ObjClose => return Ok(matched),
            _ => return Err(TokenParseError::Invalid(sep.pos)),
        }
    }
}

/// Parses a geometry object, itself the `depth`-th level of
/// `geometries` nesting, appending its coordinates to `coords`.
fn parse_geometry_tokens(
    c: &mut TokCursor<'_>,
    coords: &mut CoordBuf,
    depth: usize,
) -> TpResult<Geometry> {
    let open = c.expect(TokenKind::ObjOpen)?;
    if depth > MAX_NESTING {
        return Err(TokenParseError::TooDeep(open.pos));
    }
    let mut kind: Option<String> = None;
    let mut root: Option<usize> = None;
    let mut members: Option<Vec<Geometry>> = None;
    loop {
        let key = c.parse_string()?;
        let _colon = c.expect(TokenKind::Colon)?;
        match key {
            "type" => kind = Some(c.parse_string()?.to_owned()),
            "coordinates" => root = Some(parse_coords_tokens(c, coords)?),
            "geometries" => {
                c.expect(TokenKind::ArrOpen)?;
                let mut gs = Vec::new();
                if matches!(c.peek().map(|t| t.kind), Some(TokenKind::ArrClose)) {
                    c.next()?;
                } else {
                    loop {
                        gs.push(parse_geometry_tokens(c, coords, depth + 1)?);
                        let sep = c.next()?;
                        match sep.kind {
                            TokenKind::Comma => continue,
                            TokenKind::ArrClose => break,
                            _ => return Err(TokenParseError::Invalid(sep.pos)),
                        }
                    }
                }
                members = Some(gs);
            }
            _ => c.skip_value()?,
        }
        let sep = c.next()?;
        match sep.kind {
            TokenKind::Comma => continue,
            TokenKind::ObjClose => {
                let kind = kind.ok_or(TokenParseError::Invalid(sep.pos))?;
                return interpret_geometry(&kind, root.map(|r| coords.value(r)), members)
                    .map_err(|_| TokenParseError::Invalid(open.pos));
            }
            _ => return Err(TokenParseError::Invalid(sep.pos)),
        }
    }
}

/// Appends a coordinates value to `coords` and returns its root index:
/// nested arrays whose numeric leaves are byte spans between
/// structural tokens (the "point offsets" the paper's stateless point
/// parser consumes). Iterative, bounded at [`MAX_NESTING`] arrays.
fn parse_coords_tokens(c: &mut TokCursor<'_>, coords: &mut CoordBuf) -> TpResult<usize> {
    let root = coords.next_index();
    let open = c.expect(TokenKind::ArrOpen)?;
    coords
        .open()
        .map_err(|_| TokenParseError::TooDeep(open.pos))?;
    // Position of the last structural token consumed: a leaf is the
    // text between it and the next one.
    let mut prev_pos = open.pos;
    loop {
        let next = c.peek().ok_or(TokenParseError::Incomplete)?;
        match next.kind {
            TokenKind::ArrOpen => {
                coords
                    .open()
                    .map_err(|_| TokenParseError::TooDeep(next.pos))?;
            }
            TokenKind::ArrClose | TokenKind::Comma => {
                if let Some(v) = scalar_between(c.input, prev_pos, next.pos)? {
                    coords.num(v);
                }
                if next.kind == TokenKind::ArrClose {
                    coords.close();
                }
            }
            _ => return Err(TokenParseError::Invalid(next.pos)),
        }
        c.next()?;
        prev_pos = next.pos;
        if coords.depth() == 0 {
            return Ok(root);
        }
    }
}

/// Parses the scalar literal strictly between two token positions;
/// `None` when the span is empty or all whitespace.
fn scalar_between(input: &[u8], prev: u64, next: u64) -> TpResult<Option<f64>> {
    let (s, e) = (prev as usize + 1, next as usize);
    if s >= e {
        return Ok(None);
    }
    let raw = input.get(s..e).ok_or(TokenParseError::Invalid(prev))?;
    if raw.iter().all(|b| b.is_ascii_whitespace()) {
        return Ok(None);
    }
    parse_float(input, s, e)
        .map(Some)
        .map_err(|_| TokenParseError::Invalid(prev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::fixed_blocks;

    const DOC: &str = super::super::tests::SAMPLE;

    fn parse_with_blocks(doc: &str, n: usize) -> Vec<RawFeature> {
        let input = doc.as_bytes();
        let filter = MetadataFilter::All;
        let mut merged: Option<BlockFragment> = None;
        for b in fixed_blocks(input.len(), n) {
            let f = process_block(input, b, &filter).unwrap();
            merged = Some(match merged {
                None => f,
                Some(acc) => acc.merge(f, input, &filter).unwrap(),
            });
        }
        merged.unwrap().finalize(input, &filter).unwrap()
    }

    #[test]
    fn one_block_equals_many_blocks() {
        let base = parse_with_blocks(DOC, 1);
        assert_eq!(base.len(), 5);
        for n in [2, 3, 5, 8, 13, 21, 34, 55] {
            assert_eq!(parse_with_blocks(DOC, n), base, "blocks = {n}");
        }
    }

    #[test]
    fn block_boundary_inside_string_is_handled() {
        // Force many tiny blocks so boundaries land inside the
        // property strings containing structural characters.
        let doc = r#"{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Point","coordinates":[1.0,2.0]},"id":1,"properties":{"evil":"}],{[\":\" oh no"}}]}"#;
        let whole = parse_with_blocks(doc, 1);
        assert_eq!(whole.len(), 1);
        for n in 2..doc.len().min(40) {
            assert_eq!(parse_with_blocks(doc, n), whole, "blocks = {n}");
        }
    }

    #[test]
    fn block_boundary_inside_number_is_handled() {
        let doc = r#"{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Point","coordinates":[123.456789,-98.7654321]},"id":42,"properties":{}}]}"#;
        let whole = parse_with_blocks(doc, 1);
        for n in 2..40 {
            let got = parse_with_blocks(doc, n);
            assert_eq!(got, whole, "blocks = {n}");
        }
    }

    #[test]
    fn sync_pattern_detection() {
        let input = br#"{"type":"Feature"}"#;
        let (_, tokens) = super::super::lexer::lex_known(input, 0, STATE_OUT);
        assert!(is_feature_start(input, &tokens, 0));
        let input2 = br#"{"type":"FeatureCollection"}"#;
        let (_, tokens2) = super::super::lexer::lex_known(input2, 0, STATE_OUT);
        assert!(!is_feature_start(input2, &tokens2, 0));
    }

    #[test]
    fn desync_reported_for_marker_in_metadata_object() {
        // A nested properties *object* with "type":"Feature" is the
        // documented false-positive. The parser must fail loudly (or
        // parse correctly), never silently drop data. With whole-input
        // parsing it actually parses fine since the nested object is
        // consumed by skip_value; this asserts we don't crash and the
        // real feature count is right.
        let doc = r#"{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Point","coordinates":[0.0,0.0]},"id":1,"properties":{"trap":{"type":"Feature","x":1}}}]}"#;
        let got = parse_with_blocks(doc, 1);
        assert_eq!(got.len(), 1);
    }
}
