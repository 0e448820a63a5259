//! Recursive-descent parser for the AAS ADL.
//!
//! Grammar (informal):
//!
//! ```text
//! system     := "system" IDENT "{" decl* "}"
//! decl       := node | link | component | connector | bind | constraint | rule
//! node       := "node" IDENT "{" ("capacity" "=" NUM ";")? ("memory" "=" INT ";")? "}"
//! link       := "link" IDENT "--" IDENT "{" ("latency_ms" "=" NUM ";")? ("bandwidth" "=" NUM ";")? "}"
//! component  := "component" IDENT ":" IDENT "v" INT "on" (IDENT|"auto") ("{" prop* "}")?
//! prop       := IDENT "=" (NUM | STRING | "true" | "false") ";"
//! connector  := "connector" IDENT "{" conn_item* "}"
//! conn_item  := "policy" IDENT ";" | "aspect" aspect ";" | "cost" NUM ";"
//!             | "protocol" "request_reply" ";"
//! aspect     := "logging" | "metering" | "sequence_check"
//!             | "encryption" "(" NUM ")" | "compression" "(" NUM "," NUM ")"
//! bind       := "bind" IDENT "." IDENT "->" IDENT "->" target ("," target)* ";"
//! target     := IDENT "." IDENT
//! constraint := "constraint" IDENT "(" IDENT ("," NUM)? ")" ";"
//! rule       := "rule" IDENT ":" IDENT "(" IDENT ")" CMP NUM OP action ";"
//! OP         := "implies" | "implies_later" | "implies_before"
//!             | "permitted_if" | "wait_until"
//! action     := "migrate" "(" IDENT "," IDENT ")"
//!             | "swap" "(" IDENT "," IDENT "," INT ")"
//!             | "notify" "(" STRING ")"
//! ```

use crate::ast::{
    ActionDecl, AspectAst, BindDecl, Cmp, ComponentDeclAst, ConnectorDeclAst, ConstraintDecl,
    LinkDecl, MetricRef, NodeDecl, Placement, PolicyAst, RuleDecl, SystemDecl, TemporalOp,
};
use crate::lexer::{LexError, Lexer, Token, TokenKind};
use aas_core::message::Value;
use core::fmt;
use std::collections::BTreeMap;

/// A parse error with position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parses one `system` declaration from ADL source.
///
/// The source is lexed as it is parsed, one token of lookahead, and the
/// AST owns only the names and texts it keeps. A lexical error anywhere
/// in the source is reported ahead of a parse error before it.
///
/// # Errors
///
/// Returns [`ParseError`] on lexical or syntactic problems.
///
/// # Examples
///
/// ```
/// use aas_adl::parser::parse_system;
///
/// let sys = parse_system(r#"
///     system Demo {
///         node n0 { capacity = 1000.0; }
///         component svc : Service v1 on n0
///     }
/// "#).unwrap();
/// assert_eq!(sys.name, "Demo");
/// assert_eq!(sys.nodes.len(), 1);
/// assert_eq!(sys.components.len(), 1);
/// ```
pub fn parse_system(src: &str) -> Result<SystemDecl, ParseError> {
    let mut parser = Parser {
        lexer: Lexer::new(src),
        peeked: Token {
            kind: TokenKind::Eof,
            line: 1,
            col: 1,
        },
        lex_error: None,
    };
    parser.advance();
    let parsed = parser.system();
    if parser.lex_error.is_none() && parsed.is_err() {
        // The rest of the source, validated and dropped token by token.
        parser.lexer.try_for_each(|t| t.map(drop))?;
    }
    match parser.lex_error {
        Some(e) => Err(e.into()),
        None => parsed,
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The one token of lookahead.
    peeked: Token<'a>,
    /// The lexer's error, which ended the input where it occurred.
    lex_error: Option<LexError>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.peeked
    }

    /// Moves to the next token. At the end of input, or past a lexical
    /// error, the lookahead stays `Eof`.
    fn advance(&mut self) {
        match self.lexer.next() {
            Some(Ok(token)) => self.peeked = token,
            Some(Err(e)) => {
                self.peeked.kind = TokenKind::Eof;
                self.lex_error = Some(e);
            }
            None => self.peeked.kind = TokenKind::Eof,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError {
            message: message.into(),
            line: t.line,
            col: t.col,
        }
    }

    fn expect(&mut self, kind: &TokenKind<'_>) -> Result<(), ParseError> {
        if &self.peek().kind == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek().kind)))
        }
    }

    /// An identifier, borrowed from the source.
    fn word(&mut self) -> Result<&'a str, ParseError> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    /// An identifier the AST keeps.
    fn ident(&mut self) -> Result<String, ParseError> {
        self.word().map(str::to_owned)
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek().kind {
            TokenKind::Ident(s) if s == kw => {
                self.advance();
                Ok(())
            }
            other => Err(self.error(format!("expected `{kw}`, found {other}"))),
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        match self.peek().kind {
            TokenKind::Int(i) => {
                self.advance();
                Ok(i as f64)
            }
            TokenKind::Float(x) => {
                self.advance();
                Ok(x)
            }
            other => Err(self.error(format!("expected number, found {other}"))),
        }
    }

    fn integer(&mut self) -> Result<u64, ParseError> {
        match self.peek().kind {
            TokenKind::Int(i) => {
                self.advance();
                Ok(i)
            }
            other => Err(self.error(format!("expected integer, found {other}"))),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        match self.peek().kind {
            TokenKind::Str(s) => {
                self.advance();
                Ok(s.to_owned())
            }
            other => Err(self.error(format!("expected string, found {other}"))),
        }
    }

    fn system(&mut self) -> Result<SystemDecl, ParseError> {
        self.keyword("system")?;
        let name = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut sys = SystemDecl {
            name,
            ..SystemDecl::default()
        };
        loop {
            match self.peek().kind {
                TokenKind::RBrace => {
                    self.advance();
                    break;
                }
                TokenKind::Ident(kw) => match kw {
                    "node" => sys.nodes.push(self.node()?),
                    "link" => sys.links.push(self.link()?),
                    "component" => sys.components.push(self.component()?),
                    "connector" => sys.connectors.push(self.connector()?),
                    "bind" => sys.bindings.push(self.bind()?),
                    "constraint" => sys.constraints.push(self.constraint()?),
                    "rule" => sys.rules.push(self.rule()?),
                    other => return Err(self.error(format!("unexpected declaration `{other}`"))),
                },
                other => return Err(self.error(format!("unexpected token {other}"))),
            }
        }
        match self.peek().kind {
            TokenKind::Eof => Ok(sys),
            other => Err(self.error(format!("trailing input after system: {other}"))),
        }
    }

    fn node(&mut self) -> Result<NodeDecl, ParseError> {
        self.keyword("node")?;
        let name = self.ident()?;
        let mut capacity = 100.0;
        let mut memory = u64::MAX;
        if self.peek().kind == TokenKind::LBrace {
            self.advance();
            while self.peek().kind != TokenKind::RBrace {
                let key = self.word()?;
                self.expect(&TokenKind::Eq)?;
                match key {
                    "capacity" => capacity = self.number()?,
                    "memory" => memory = self.integer()?,
                    other => return Err(self.error(format!("unknown node property `{other}`"))),
                }
                self.expect(&TokenKind::Semi)?;
            }
            self.advance();
        }
        Ok(NodeDecl {
            name,
            capacity,
            memory,
        })
    }

    fn link(&mut self) -> Result<LinkDecl, ParseError> {
        self.keyword("link")?;
        let a = self.ident()?;
        self.expect(&TokenKind::DashDash)?;
        let b = self.ident()?;
        let mut latency_ms = 1.0;
        let mut bandwidth = 1e6;
        if self.peek().kind == TokenKind::LBrace {
            self.advance();
            while self.peek().kind != TokenKind::RBrace {
                let key = self.word()?;
                self.expect(&TokenKind::Eq)?;
                match key {
                    "latency_ms" => latency_ms = self.number()?,
                    "bandwidth" => bandwidth = self.number()?,
                    other => return Err(self.error(format!("unknown link property `{other}`"))),
                }
                self.expect(&TokenKind::Semi)?;
            }
            self.advance();
        }
        Ok(LinkDecl {
            a,
            b,
            latency_ms,
            bandwidth,
        })
    }

    fn component(&mut self) -> Result<ComponentDeclAst, ParseError> {
        self.keyword("component")?;
        let name = self.ident()?;
        self.expect(&TokenKind::Colon)?;
        let type_name = self.ident()?;
        // Version: `v<INT>` arrives as one identifier like `v1`.
        let vtok = self.word()?;
        let version: u32 = vtok
            .strip_prefix('v')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.error(format!("expected version like `v1`, found `{vtok}`")))?;
        self.keyword("on")?;
        let placement = match self.word()? {
            "auto" => Placement::Auto,
            place => Placement::On(place.to_owned()),
        };
        let mut props = BTreeMap::new();
        let mut expected_load = 1.0;
        let mut memory_demand = 0;
        if self.peek().kind == TokenKind::LBrace {
            self.advance();
            while self.peek().kind != TokenKind::RBrace {
                let key = self.word()?;
                self.expect(&TokenKind::Eq)?;
                let value = match self.peek().kind {
                    TokenKind::Int(i) => Value::Int(i64::try_from(i).map_err(|_| {
                        self.error(format!("integer {i} is out of range (max {})", i64::MAX))
                    })?),
                    TokenKind::Float(x) => Value::Float(x),
                    TokenKind::Str(s) => Value::Str(s.to_owned()),
                    TokenKind::Ident(b @ ("true" | "false")) => Value::Bool(b == "true"),
                    other => return Err(self.error(format!("expected literal, found {other}"))),
                };
                self.advance();
                match key {
                    "expected_load" => {
                        expected_load = match &value {
                            Value::Float(x) => *x,
                            Value::Int(i) => *i as f64,
                            _ => return Err(self.error("expected_load must be numeric")),
                        }
                    }
                    "memory_demand" => {
                        memory_demand = match &value {
                            Value::Int(i) if *i >= 0 => *i as u64,
                            _ => {
                                return Err(
                                    self.error("memory_demand must be a non-negative integer")
                                )
                            }
                        }
                    }
                    _ => {
                        props.insert(key.to_owned(), value);
                    }
                }
                self.expect(&TokenKind::Semi)?;
            }
            self.advance();
        }
        Ok(ComponentDeclAst {
            name,
            type_name,
            version,
            placement,
            props,
            expected_load,
            memory_demand,
        })
    }

    fn connector(&mut self) -> Result<ConnectorDeclAst, ParseError> {
        self.keyword("connector")?;
        let name = self.ident()?;
        let mut decl = ConnectorDeclAst {
            name,
            policy: PolicyAst::Direct,
            aspects: Vec::new(),
            cost: None,
            request_reply: false,
        };
        self.expect(&TokenKind::LBrace)?;
        while self.peek().kind != TokenKind::RBrace {
            match self.word()? {
                "policy" => {
                    decl.policy = match self.word()? {
                        "direct" => PolicyAst::Direct,
                        "round_robin" => PolicyAst::RoundRobin,
                        "broadcast" => PolicyAst::Broadcast,
                        other => return Err(self.error(format!("unknown policy `{other}`"))),
                    };
                }
                "aspect" => {
                    let aspect = match self.word()? {
                        "logging" => AspectAst::Logging,
                        "metering" => AspectAst::Metering,
                        "sequence_check" => AspectAst::SequenceCheck,
                        "encryption" => {
                            self.expect(&TokenKind::LParen)?;
                            let cost = self.number()?;
                            self.expect(&TokenKind::RParen)?;
                            AspectAst::Encryption(cost)
                        }
                        "compression" => {
                            self.expect(&TokenKind::LParen)?;
                            let ratio = self.number()?;
                            self.expect(&TokenKind::Comma)?;
                            let cost = self.number()?;
                            self.expect(&TokenKind::RParen)?;
                            AspectAst::Compression(ratio, cost)
                        }
                        other => return Err(self.error(format!("unknown aspect `{other}`"))),
                    };
                    decl.aspects.push(aspect);
                }
                "cost" => decl.cost = Some(self.number()?),
                "protocol" => {
                    self.keyword("request_reply")?;
                    decl.request_reply = true;
                }
                other => return Err(self.error(format!("unknown connector item `{other}`"))),
            }
            self.expect(&TokenKind::Semi)?;
        }
        self.advance();
        Ok(decl)
    }

    fn port_ref(&mut self) -> Result<(String, String), ParseError> {
        let inst = self.ident()?;
        self.expect(&TokenKind::Dot)?;
        let port = self.ident()?;
        Ok((inst, port))
    }

    fn bind(&mut self) -> Result<BindDecl, ParseError> {
        self.keyword("bind")?;
        let from = self.port_ref()?;
        self.expect(&TokenKind::Arrow)?;
        let via = self.ident()?;
        self.expect(&TokenKind::Arrow)?;
        let mut to = vec![self.port_ref()?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            to.push(self.port_ref()?);
        }
        self.expect(&TokenKind::Semi)?;
        Ok(BindDecl { from, via, to })
    }

    fn constraint(&mut self) -> Result<ConstraintDecl, ParseError> {
        self.keyword("constraint")?;
        let kind = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let subject = self.ident()?;
        let limit = if self.peek().kind == TokenKind::Comma {
            self.advance();
            Some(self.number()?)
        } else {
            None
        };
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Semi)?;
        Ok(ConstraintDecl {
            kind,
            subject,
            limit,
        })
    }

    fn rule(&mut self) -> Result<RuleDecl, ParseError> {
        self.keyword("rule")?;
        let name = self.ident()?;
        self.expect(&TokenKind::Colon)?;
        let metric = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let subject = self.ident()?;
        self.expect(&TokenKind::RParen)?;
        let cmp = match self.peek().kind {
            TokenKind::Gt => Cmp::Gt,
            TokenKind::Lt => Cmp::Lt,
            TokenKind::Ge => Cmp::Ge,
            TokenKind::Le => Cmp::Le,
            ref other => return Err(self.error(format!("expected comparison, found {other}"))),
        };
        self.advance();
        let threshold = self.number()?;
        let op = match self.word()? {
            "implies" => TemporalOp::Implies,
            "implies_later" => TemporalOp::ImpliesLater,
            "implies_before" => TemporalOp::ImpliesBefore,
            "permitted_if" => TemporalOp::PermittedIf,
            "wait_until" => TemporalOp::WaitUntil,
            other => return Err(self.error(format!("unknown temporal operator `{other}`"))),
        };
        let action = match self.word()? {
            "migrate" => {
                self.expect(&TokenKind::LParen)?;
                let component = self.ident()?;
                self.expect(&TokenKind::Comma)?;
                let to_node = self.ident()?;
                self.expect(&TokenKind::RParen)?;
                ActionDecl::Migrate { component, to_node }
            }
            "swap" => {
                self.expect(&TokenKind::LParen)?;
                let component = self.ident()?;
                self.expect(&TokenKind::Comma)?;
                let type_name = self.ident()?;
                self.expect(&TokenKind::Comma)?;
                let version =
                    u32::try_from(self.integer()?).map_err(|_| self.error("version too large"))?;
                self.expect(&TokenKind::RParen)?;
                ActionDecl::Swap {
                    component,
                    type_name,
                    version,
                }
            }
            "notify" => {
                self.expect(&TokenKind::LParen)?;
                let text = self.string()?;
                self.expect(&TokenKind::RParen)?;
                ActionDecl::Notify(text)
            }
            other => return Err(self.error(format!("unknown action `{other}`"))),
        };
        self.expect(&TokenKind::Semi)?;
        Ok(RuleDecl {
            name,
            condition: MetricRef { metric, subject },
            cmp,
            threshold,
            op,
            action,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
        // A full system exercising the whole grammar.
        system Video {
            node edge { capacity = 500.0; memory = 2048; }
            node core { capacity = 2000.0; }
            link edge -- core { latency_ms = 8.0; bandwidth = 2e6; }

            component cam : Camera v1 on edge { fps = 30; hd = true; expected_load = 3.5; }
            component enc : Encoder v2 on auto { memory_demand = 512; }
            component sink : Sink v1 on core

            connector wire {
                policy round_robin;
                aspect metering;
                aspect compression(0.5, 0.2);
                aspect encryption(0.3);
                cost 0.05;
                protocol request_reply;
            }

            bind cam.out -> wire -> enc.in, sink.in;

            constraint max_mean_latency(sink, 100.0);
            constraint no_sequence_anomalies(sink);

            rule hot: utilization(edge) > 0.8 implies migrate(enc, core);
            rule cold: latency(sink) < 5.0 wait_until notify("all quiet");
        }
    "#;

    #[test]
    fn full_system_parses() {
        let sys = parse_system(FULL).unwrap();
        assert_eq!(sys.name, "Video");
        assert_eq!(sys.nodes.len(), 2);
        assert_eq!(sys.links.len(), 1);
        assert_eq!(sys.components.len(), 3);
        assert_eq!(sys.connectors.len(), 1);
        assert_eq!(sys.bindings.len(), 1);
        assert_eq!(sys.constraints.len(), 2);
        assert_eq!(sys.rules.len(), 2);
    }

    #[test]
    fn node_defaults_apply() {
        let sys = parse_system(FULL).unwrap();
        assert_eq!(sys.nodes[0].memory, 2048);
        assert_eq!(sys.nodes[1].memory, u64::MAX);
        assert_eq!(sys.nodes[1].capacity, 2000.0);
    }

    #[test]
    fn component_details() {
        let sys = parse_system(FULL).unwrap();
        let cam = &sys.components[0];
        assert_eq!(cam.type_name, "Camera");
        assert_eq!(cam.version, 1);
        assert_eq!(cam.placement, Placement::On("edge".into()));
        assert_eq!(cam.expected_load, 3.5);
        assert_eq!(cam.props.get("fps"), Some(&Value::Int(30)));
        assert_eq!(cam.props.get("hd"), Some(&Value::Bool(true)));
        let enc = &sys.components[1];
        assert_eq!(enc.placement, Placement::Auto);
        assert_eq!(enc.memory_demand, 512);
    }

    #[test]
    fn connector_details() {
        let sys = parse_system(FULL).unwrap();
        let w = &sys.connectors[0];
        assert_eq!(w.policy, PolicyAst::RoundRobin);
        assert_eq!(w.aspects.len(), 3);
        assert_eq!(w.cost, Some(0.05));
        assert!(w.request_reply);
        assert_eq!(w.aspects[1], AspectAst::Compression(0.5, 0.2));
    }

    #[test]
    fn binding_targets() {
        let sys = parse_system(FULL).unwrap();
        let b = &sys.bindings[0];
        assert_eq!(b.from, ("cam".into(), "out".into()));
        assert_eq!(b.via, "wire");
        assert_eq!(b.to.len(), 2);
    }

    #[test]
    fn rules_parse_operators_and_actions() {
        let sys = parse_system(FULL).unwrap();
        assert_eq!(sys.rules[0].op, TemporalOp::Implies);
        assert_eq!(sys.rules[0].cmp, Cmp::Gt);
        assert!(matches!(
            &sys.rules[0].action,
            ActionDecl::Migrate { component, to_node } if component == "enc" && to_node == "core"
        ));
        assert_eq!(sys.rules[1].op, TemporalOp::WaitUntil);
        assert!(matches!(&sys.rules[1].action, ActionDecl::Notify(s) if s == "all quiet"));
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_system("system X {\n  component ; }").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("identifier"));
    }

    #[test]
    fn unknown_declaration_rejected() {
        let err = parse_system("system X { gizmo Y {} }").unwrap_err();
        assert!(err.message.contains("gizmo"));
    }

    #[test]
    fn bad_version_rejected() {
        let err = parse_system("system X { component a : T version2 on n0 }").unwrap_err();
        assert!(err.message.contains("version"));
    }

    /// Malformed sources with the `(message, line, col)` they report.
    /// A lexical error anywhere outranks a parse error before it, and
    /// columns count chars.
    #[test]
    fn malformed_sources_report_their_first_error_where_it_is() {
        let table: &[(&str, &str, usize, usize)] = &[
            (
                "system X { gizmo ; \"unterminated }",
                "unterminated string",
                1,
                20,
            ),
            (
                "system X { node n0 { capacity = \"oops; } }",
                "unterminated string",
                1,
                33,
            ),
            (
                "system X { rule r: a(b) > 1 implies notify(\"abc\n\"); }",
                "unterminated string",
                1,
                44,
            ),
            ("system X { node n0 @ }", "unexpected character `@`", 1, 20),
            ("system X { é }", "unexpected character `é`", 1, 12),
            ("system X { link a - b }", "unexpected character `-`", 1, 19),
            ("system X { } extra @", "unexpected character `@`", 1, 20),
            (
                "system X { node n0 { capacity = 1.2.3; } }",
                "bad number `1.2.3`",
                1,
                33,
            ),
            (
                "system X { node n0 { capacity = 3e; } }",
                "bad number `3e`",
                1,
                33,
            ),
            (
                "system X { node n0 { memory = 99999999999999999999; } }",
                "bad integer `99999999999999999999`",
                1,
                31,
            ),
            (
                "system X { rule r: a(b) > 1 implies swap(c, T, 4294967296); }",
                "version too large",
                1,
                58,
            ),
            (
                "system X { } node",
                "trailing input after system: `node`",
                1,
                14,
            ),
            (
                "system X { rule r: latency(s) > 1.0 implies notify(\"héllo→\") x; }",
                "expected ;, found `x`",
                1,
                62,
            ),
            (
                "system X { node n0 // trailing comment",
                "unexpected token <eof>",
                1,
                20,
            ),
            (
                "system X {\n  component ; }",
                "expected identifier, found ;",
                2,
                13,
            ),
            (
                "// header\nsystem X {\n  // note\n  link a -- b { latency_ms = 2.0 }\n}",
                "expected ;, found }",
                4,
                34,
            ),
            ("", "expected `system`, found <eof>", 1, 1),
        ];
        for &(src, message, line, col) in table {
            let err = parse_system(src).unwrap_err();
            assert_eq!(
                (&err.message[..], err.line, err.col),
                (message, line, col),
                "{src:?}"
            );
        }
    }

    #[test]
    fn a_property_integer_above_i64_max_is_an_error() {
        let src = "system X { component c : T v1 on n0 { big = 9223372036854775808; } }";
        let err = parse_system(src).unwrap_err();
        let expected = "integer 9223372036854775808 is out of range (max 9223372036854775807)";
        assert_eq!((&err.message[..], err.line, err.col), (expected, 1, 45));
        let sys = parse_system(&src.replace("808", "807")).unwrap();
        let big = sys.components[0].props.get("big");
        assert_eq!(big, Some(&Value::Int(i64::MAX)));
    }

    #[test]
    fn swap_action_parses() {
        let sys = parse_system(
            "system X { rule r: error_rate(svc) >= 0.5 implies_later swap(svc, Svc, 3); }",
        )
        .unwrap();
        assert!(matches!(
            &sys.rules[0].action,
            ActionDecl::Swap { component, type_name, version: 3 }
                if component == "svc" && type_name == "Svc"
        ));
        assert_eq!(sys.rules[0].op, TemporalOp::ImpliesLater);
    }
}
