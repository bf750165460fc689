//! `#[derive(Serialize, Deserialize)]` for the vendored serde facade.
//!
//! The build container has no crates.io access, so `syn`/`quote` are
//! unavailable; this crate parses the derive input token stream by hand.
//! Supported shapes — exactly what the workspace uses:
//!
//! * structs: named fields, tuple structs (newtype = serialize as inner,
//!   matching serde's JSON convention), unit structs, generic parameters
//!   (type-param bounds re-emitted, `Serialize`/`Deserialize` bounds added);
//! * enums, externally tagged like serde JSON: unit variants as `"Name"`,
//!   newtype variants as `{"Name": value}`, tuple variants as
//!   `{"Name": [..]}`, struct variants as `{"Name": {..}}`;
//! * `#[serde(transparent)]` on single-field structs.
//!
//! Unsupported field/container attributes are rejected with a compile error
//! rather than silently ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Input model
// ---------------------------------------------------------------------------

struct Input {
    name: String,
    /// Raw tokens between `<` and `>` of the declaration, e.g. `E: Element`.
    generics_decl: String,
    /// Bare parameter names for the type path, e.g. `E`.
    generics_use: Vec<String>,
    /// Type parameter names that should receive trait bounds.
    type_params: Vec<String>,
    /// Raw `where` predicates declared on the item, without the keyword.
    where_decl: String,
    transparent: bool,
    data: Data,
}

enum Data {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

// ---------------------------------------------------------------------------
// Token-stream parsing
// ---------------------------------------------------------------------------

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut transparent = false;

    // Leading attributes (doc comments, #[serde(...)], other derives' attrs).
    while i + 1 < tokens.len() {
        let TokenTree::Punct(p) = &tokens[i] else { break };
        if p.as_char() != '#' {
            break;
        }
        let TokenTree::Group(g) = &tokens[i + 1] else {
            return Err("malformed attribute".into());
        };
        let body = g.stream().to_string();
        if let Some(args) = body.strip_prefix("serde") {
            let args = args.trim();
            if args == "(transparent)" {
                transparent = true;
            } else {
                return Err(format!("unsupported serde attribute `{body}`"));
            }
        }
        i += 2;
    }

    // Visibility.
    if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
        i += 1;
        if matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis) {
            i += 1;
        }
    }

    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found `{other}`")),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => return Err(format!("expected type name, found `{other}`")),
    };
    i += 1;

    // Generic parameter list.
    let mut generics_decl = String::new();
    let mut generics_use = Vec::new();
    let mut type_params = Vec::new();
    if matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == '<') {
        i += 1;
        let start = i;
        let mut depth = 0usize;
        let mut prev_dash = false;
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' if prev_dash => {} // `->` in an fn-pointer bound
                    '>' if depth == 0 => break,
                    '>' => depth -= 1,
                    _ => {}
                }
                prev_dash = p.as_char() == '-';
            } else {
                prev_dash = false;
            }
            i += 1;
        }
        let params = &tokens[start..i];
        i += 1; // past closing `>`
        generics_decl = tokens_to_string(params);
        for segment in split_top_level(params) {
            if segment.is_empty() {
                continue;
            }
            match &segment[0] {
                TokenTree::Punct(p) if p.as_char() == '\'' => {
                    // Lifetime parameter: use as `'a`, no trait bound.
                    if let Some(TokenTree::Ident(id)) = segment.get(1) {
                        generics_use.push(format!("'{id}"));
                    }
                }
                TokenTree::Ident(id) if id.to_string() == "const" => {
                    if let Some(TokenTree::Ident(n)) = segment.get(1) {
                        generics_use.push(n.to_string());
                    }
                }
                TokenTree::Ident(id) => {
                    generics_use.push(id.to_string());
                    type_params.push(id.to_string());
                }
                other => return Err(format!("unsupported generic parameter `{other}`")),
            }
        }
    }

    // Optional `where` clause.
    let mut where_decl = String::new();
    if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "where") {
        i += 1;
        let start = i;
        while i < tokens.len()
            && !matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Brace)
        {
            i += 1;
        }
        where_decl = tokens_to_string(&tokens[start..i]);
    }

    let data = if kind == "struct" {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Struct(Fields::Named(parse_named_fields(g.stream())?))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Data::Struct(Fields::Tuple(count_tuple_fields(g.stream())))
            }
            _ => Data::Struct(Fields::Unit),
        }
    } else if kind == "enum" {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream())?)
            }
            _ => return Err("enum without a body".into()),
        }
    } else {
        return Err(format!("cannot derive for `{kind}`"));
    };

    Ok(Input { name, generics_decl, generics_use, type_params, where_decl, transparent, data })
}

fn tokens_to_string(tokens: &[TokenTree]) -> String {
    tokens.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(" ")
}

/// Split a token slice on commas that sit outside any `<...>` nesting
/// (groups are atomic token trees, so only angle brackets need tracking).
fn split_top_level(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = vec![Vec::new()];
    let mut depth = 0usize;
    let mut prev_dash = false;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' if !prev_dash && depth > 0 => depth -= 1,
                ',' if depth == 0 => {
                    out.push(Vec::new());
                    prev_dash = false;
                    continue;
                }
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        out.last_mut().unwrap().push(t.clone());
    }
    if out.last().is_some_and(Vec::is_empty) {
        out.pop();
    }
    out
}

/// Strip leading attributes and visibility from one field/variant segment.
fn strip_attrs_and_vis(segment: &[TokenTree]) -> Result<&[TokenTree], String> {
    let mut i = 0;
    while i + 1 < segment.len() {
        let TokenTree::Punct(p) = &segment[i] else { break };
        if p.as_char() != '#' {
            break;
        }
        if let TokenTree::Group(g) = &segment[i + 1] {
            let body = g.stream().to_string();
            if body.starts_with("serde") {
                return Err(format!("unsupported field-level serde attribute `{body}`"));
            }
        }
        i += 2;
    }
    if matches!(segment.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        i += 1;
        if matches!(segment.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    Ok(&segment[i..])
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut names = Vec::new();
    for segment in split_top_level(&tokens) {
        let rest = strip_attrs_and_vis(&segment)?;
        match rest.first() {
            Some(TokenTree::Ident(id)) => names.push(id.to_string()),
            Some(other) => return Err(format!("expected field name, found `{other}`")),
            None => {}
        }
    }
    Ok(names)
}

fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    split_top_level(&tokens).len()
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    for segment in split_top_level(&tokens) {
        let rest = strip_attrs_and_vis(&segment)?;
        let Some(TokenTree::Ident(id)) = rest.first() else {
            if rest.is_empty() {
                continue;
            }
            return Err(format!("expected variant name, found `{}`", rest[0]));
        };
        let fields = match rest.get(1) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                return Err("explicit discriminants are not supported".into())
            }
            _ => Fields::Unit,
        };
        variants.push(Variant { name: id.to_string(), fields });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

impl Input {
    /// `impl<G> Trait for Name<P> where ...` header.
    fn impl_header(&self, trait_path: &str) -> String {
        let generics = if self.generics_decl.is_empty() {
            String::new()
        } else {
            format!("<{}>", self.generics_decl)
        };
        let ty_args = if self.generics_use.is_empty() {
            String::new()
        } else {
            format!("<{}>", self.generics_use.join(", "))
        };
        let mut predicates: Vec<String> = Vec::new();
        if !self.where_decl.is_empty() {
            predicates.push(self.where_decl.clone());
        }
        for p in &self.type_params {
            predicates.push(format!("{p}: {trait_path}"));
        }
        let where_clause = if predicates.is_empty() {
            String::new()
        } else {
            format!(" where {}", predicates.join(", "))
        };
        format!("impl{generics} {trait_path} for {}{ty_args}{where_clause}", self.name)
    }
}

fn gen_serialize(input: &Input) -> String {
    let body = match &input.data {
        Data::Struct(fields) => serialize_fields(fields, input.transparent, "self.", None),
        Data::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let (pattern, expr) = match &v.fields {
                    Fields::Unit => (
                        String::new(),
                        format!("::serde::Value::Str(::std::string::String::from(\"{}\"))", v.name),
                    ),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
                        };
                        (format!("({})", binds.join(", ")), tag_map(&v.name, &inner))
                    }
                    Fields::Named(names) => {
                        let entries: Vec<String> = names
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        let inner =
                            format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "));
                        (format!("{{ {} }}", names.join(", ")), tag_map(&v.name, &inner))
                    }
                };
                arms.push_str(&format!("{}::{}{} => {},\n", input.name, v.name, pattern, expr));
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n{} {{\n fn to_value(&self) -> ::serde::Value {{\n {body}\n }}\n}}",
        input.impl_header("::serde::Serialize")
    )
}

/// `{"Tag": inner}` map for enum variants.
fn tag_map(tag: &str, inner: &str) -> String {
    format!("::serde::Value::Map(::std::vec![(::std::string::String::from(\"{tag}\"), {inner})])")
}

/// Serialization expression for a field list accessed via `prefix` (structs:
/// `self.`) or via bound names (enum struct variants pass `None` prefix and
/// pre-bound identifiers — handled at the call site above).
fn serialize_fields(
    fields: &Fields,
    transparent: bool,
    prefix: &str,
    _bound: Option<&[String]>,
) -> String {
    match fields {
        Fields::Unit => "::serde::Value::Null".to_string(),
        Fields::Tuple(1) => {
            // Newtype structs serialize as their inner value (serde JSON
            // convention; also covers #[serde(transparent)]).
            format!("::serde::Serialize::to_value(&{prefix}0)")
        }
        Fields::Tuple(n) => {
            let items: Vec<String> =
                (0..*n).map(|k| format!("::serde::Serialize::to_value(&{prefix}{k})")).collect();
            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
        }
        Fields::Named(names) if transparent && names.len() == 1 => {
            format!("::serde::Serialize::to_value(&{prefix}{})", names[0])
        }
        Fields::Named(names) => {
            let entries: Vec<String> = names
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value(&{prefix}{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "))
        }
    }
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.data {
        Data::Struct(fields) => deserialize_fields(fields, input.transparent, name, "__v"),
        Data::Enum(variants) => {
            let mut str_arms = String::new();
            let mut map_arms = String::new();
            for v in variants {
                match &v.fields {
                    Fields::Unit => {
                        str_arms.push_str(&format!(
                            "\"{0}\" => ::std::result::Result::Ok({name}::{0}),\n",
                            v.name
                        ));
                    }
                    other => {
                        let ctor = deserialize_variant(other, name, &v.name);
                        map_arms.push_str(&format!("\"{}\" => {{ {ctor} }}\n", v.name));
                    }
                }
            }
            format!(
                "match __v {{\n\
                 ::serde::Value::Str(__s) => match __s.as_str() {{\n{str_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::custom(::std::format!(\n\
                     \"unknown variant {{:?}} of {name}\", __other))),\n}},\n\
                 ::serde::Value::Map(__entries) if __entries.len() == 1 => {{\n\
                 let (__tag, __inner) = &__entries[0];\n\
                 let _ = &__inner;\n\
                 match __tag.as_str() {{\n{map_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::custom(::std::format!(\n\
                     \"unknown variant {{:?}} of {name}\", __other))),\n}}\n}},\n\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\n\
                     \"expected string or single-entry map for enum {name}\")),\n}}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n{} {{\n fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n {body}\n }}\n}}",
        input.impl_header("::serde::Deserialize")
    )
}

/// Constructor expression for a struct deserialized from `source`.
fn deserialize_fields(fields: &Fields, transparent: bool, path: &str, source: &str) -> String {
    match fields {
        Fields::Unit => format!("::std::result::Result::Ok({path})"),
        Fields::Tuple(1) => format!(
            "::std::result::Result::Ok({path}(::serde::Deserialize::from_value({source})?))"
        ),
        Fields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|k| format!("__e{k}")).collect();
            let inits: Vec<String> = binds
                .iter()
                .map(|b| format!("::serde::Deserialize::from_value({b})?"))
                .collect();
            format!(
                "match {source}.as_seq() {{\n\
                 ::std::option::Option::Some([{}]) => ::std::result::Result::Ok({path}({})),\n\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\"expected {n}-element sequence\")),\n}}",
                binds.join(", "),
                inits.join(", ")
            )
        }
        Fields::Named(names) if transparent && names.len() == 1 => format!(
            "::std::result::Result::Ok({path} {{ {}: ::serde::Deserialize::from_value({source})? }})",
            names[0]
        ),
        Fields::Named(names) => {
            let inits: Vec<String> = names
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(::serde::map_get({source}, \"{f}\")?)?"
                    )
                })
                .collect();
            format!("::std::result::Result::Ok({path} {{ {} }})", inits.join(", "))
        }
    }
}

/// Constructor for a non-unit enum variant deserialized from `__inner`.
fn deserialize_variant(fields: &Fields, name: &str, variant: &str) -> String {
    deserialize_fields(fields, false, &format!("{name}::{variant}"), "__inner")
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

fn run(input: TokenStream, gen: fn(&Input) -> String) -> TokenStream {
    match parse_input(input) {
        Ok(parsed) => {
            let code = gen(&parsed);
            code.parse().unwrap_or_else(|e| {
                let msg = format!("serde_derive generated invalid code: {e}");
                format!("::std::compile_error!({msg:?});").parse().unwrap()
            })
        }
        Err(msg) => {
            let msg = format!("serde_derive: {msg}");
            format!("::std::compile_error!({msg:?});").parse().unwrap()
        }
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    run(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    run(input, gen_deserialize)
}
