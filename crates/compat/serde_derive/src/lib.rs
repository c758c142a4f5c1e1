//! Derive macros for the offline `serde` stand-in.
//!
//! Parses the deriving item with raw `proc_macro` tokens (the build
//! environment has no `syn`/`quote`) and emits `impl serde::Serialize` /
//! `impl serde::Deserialize` blocks over the crate's `Value` data model.
//!
//! Supported shapes — exactly what this workspace uses:
//!
//! * structs with named fields → maps keyed by field name,
//! * newtype structs → transparent (the inner value),
//! * tuple structs with n > 1 fields → sequences,
//! * enums with unit / newtype / tuple / struct variants → externally
//!   tagged (`"Variant"` or `{ "Variant": payload }`), like real serde.
//!
//! Generic types are rejected with a compile error.
//!
//! Supported `#[serde(...)]` attributes — upstream syntax, container
//! level only:
//!
//! * `default` (structs with named fields): an absent key takes its
//!   value from `<Self as Default>::default()`, built once per call;
//! * `deny_unknown_fields`: reject keys that name no field.
//!
//! Any other argument, and any `#[serde]` on a field or variant, is a
//! compile error, so an upstream attribute is never silently ignored.
//! The stand-in rejects unknown keys on *every* struct (and struct
//! variant) with ``unknown <Owner> field `<key>` (expected one of: …)``,
//! whether or not `deny_unknown_fields` is given; config types carry the
//! attribute anyway so a swap to real serde stays strict.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The shape of the item a derive is attached to.
enum Item {
    NamedStruct {
        name: String,
        fields: Vec<String>,
        /// `#[serde(default)]`: absent keys fall back to `Default`.
        default: bool,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().expect("generated code parses"),
        Err(msg) => compile_error(&msg),
    }
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item)
            .parse()
            .expect("generated code parses"),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("literal")
}

// ---------------- parsing ----------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = skip_attrs_and_vis(&tokens, &mut i);
    let kw = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected item name".into()),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde stand-in derive does not support generics (on `{name}`)"
        ));
    }
    let default = container_default(&name, &attrs)?;
    match (kw.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Item::NamedStruct {
                fields: parse_named_fields(&name, g.stream())?,
                name,
                default,
            })
        }
        _ if default => Err(format!(
            "`#[serde(default)]` on `{name}`: the serde stand-in supports it only on structs with named fields"
        )),
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Item::TupleStruct {
                arity: count_tuple_fields(&name, g.stream())?,
                name,
            })
        }
        ("struct", _) => Err(format!("unit struct `{name}` has nothing to serialize")),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Item::Enum {
                variants: parse_variants(&name, g.stream())?,
                name,
            })
        }
        _ => Err(format!("cannot derive serde impls for `{kw} {name}`")),
    }
}

/// Skip leading `#[...]` attributes (including doc comments) and
/// visibility qualifiers, returning what follows `serde` in each
/// `#[serde...]` attribute among them.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) -> Vec<Vec<TokenTree>> {
    let mut serde_attrs = Vec::new();
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
                    let mut inner = g.stream().into_iter();
                    if matches!(inner.next(), Some(TokenTree::Ident(id)) if id.to_string() == "serde")
                    {
                        serde_attrs.push(inner.collect());
                    }
                }
                *i += 2; // `#` + bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // `pub(crate)` etc.
                }
            }
            _ => break,
        }
    }
    serde_attrs
}

/// The tail of every unsupported-attribute error.
const SUPPORTED: &str =
    "the serde stand-in supports only container-level `default` and `deny_unknown_fields`";

/// Read the container-level `#[serde(...)]` attributes of `owner`:
/// whether `default` was given. `deny_unknown_fields` is accepted (the
/// derive always rejects unknown keys); anything else is an error.
fn container_default(owner: &str, attrs: &[Vec<TokenTree>]) -> Result<bool, String> {
    let mut default = false;
    for attr in attrs {
        let args = match attr.as_slice() {
            [TokenTree::Group(g)] if g.delimiter() == Delimiter::Parenthesis => g.stream(),
            _ => return Err(format!("malformed `#[serde]` attribute on `{owner}`")),
        };
        let args: Vec<TokenTree> = args.into_iter().collect();
        for arg in args.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
            match arg {
                [] => {}
                [TokenTree::Ident(id)] if id.to_string() == "default" => default = true,
                [TokenTree::Ident(id)] if id.to_string() == "deny_unknown_fields" => {}
                other => {
                    let text: TokenStream = other.iter().cloned().collect();
                    return Err(format!(
                        "unsupported `#[serde({text})]` on `{owner}`: {SUPPORTED}"
                    ));
                }
            }
        }
    }
    Ok(default)
}

/// Field- and variant-level `#[serde]` attributes are not supported.
fn reject_member_attrs(attrs: &[Vec<TokenTree>], member: &str) -> Result<(), String> {
    if attrs.is_empty() {
        Ok(())
    } else {
        Err(format!("`#[serde]` on `{member}`: {SUPPORTED}"))
    }
}

/// Advance past one type, stopping at a top-level `,` (commas nested in
/// `<...>` don't count; parens/brackets/braces arrive as single groups).
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle: i32 = 0;
    while let Some(t) = tokens.get(*i) {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => return,
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(owner: &str, stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = skip_attrs_and_vis(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => return Err(format!("expected field name, found `{other}`")),
        };
        reject_member_attrs(&attrs, &format!("{owner}.{name}"))?;
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("expected `:` after field `{name}`")),
        }
        skip_type(&tokens, &mut i);
        i += 1; // past the comma (or end)
        fields.push(name);
    }
    Ok(fields)
}

fn count_tuple_fields(owner: &str, stream: TokenStream) -> Result<usize, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut arity = 0;
    let mut i = 0;
    while i < tokens.len() {
        let attrs = skip_attrs_and_vis(&tokens, &mut i);
        reject_member_attrs(&attrs, &format!("{owner}.{arity}"))?;
        if i >= tokens.len() {
            break;
        }
        skip_type(&tokens, &mut i);
        i += 1; // past the comma (or end)
        arity += 1;
    }
    Ok(arity)
}

fn parse_variants(owner: &str, stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = skip_attrs_and_vis(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => return Err(format!("expected variant name, found `{other}`")),
        };
        let path = format!("{owner}::{name}");
        reject_member_attrs(&attrs, &path)?;
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantShape::Tuple(count_tuple_fields(&path, g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Named(parse_named_fields(&path, g.stream())?)
            }
            _ => VariantShape::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        while let Some(t) = tokens.get(i) {
            i += 1;
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---------------- codegen ----------------

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields, .. } => {
            let entries: String = fields
                .iter()
                .map(|f| format!("({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f})),"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Map(vec![{entries}])\n\
                     }}\n\
                 }}"
            )
        }
        Item::TupleStruct { name, arity } => {
            let body = if *arity == 1 {
                "::serde::Serialize::to_value(&self.0)".to_string()
            } else {
                let items: String = (0..*arity)
                    .map(|i| format!("::serde::Serialize::to_value(&self.{i}),"))
                    .collect();
                format!("::serde::Value::Seq(vec![{items}])")
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => format!(
                            "{name}::{vn} => ::serde::Value::Str({vn:?}.to_string()),\n"
                        ),
                        VariantShape::Tuple(1) => format!(
                            "{name}::{vn}(x0) => ::serde::Value::Map(vec![({vn:?}.to_string(), ::serde::Serialize::to_value(x0))]),\n"
                        ),
                        VariantShape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                            let items: String = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b}),"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::Value::Map(vec![({vn:?}.to_string(), ::serde::Value::Seq(vec![{items}]))]),\n",
                                binds.join(", ")
                            )
                        }
                        VariantShape::Named(fields) => {
                            let binds = fields.join(", ");
                            let entries: String = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "({f:?}.to_string(), ::serde::Serialize::to_value({f})),"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Value::Map(vec![({vn:?}.to_string(), ::serde::Value::Map(vec![{entries}]))]),\n"
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{arms}\n}}\n\
                     }}\n\
                 }}"
            )
        }
    }
}

/// Reject map keys that name no field — a typoed knob must be an
/// error, not a silently-defaulted value.
fn unknown_key_check(owner: &str, fields: &[String], map_expr: &str) -> String {
    let alts = fields
        .iter()
        .map(|f| format!("{f:?}"))
        .collect::<Vec<_>>()
        .join(" | ");
    let expected = fields.join(", ");
    format!(
        "if let ::serde::Value::Map(m) = {map_expr} {{\n\
             for (k, _) in m.iter() {{\n\
                 if !matches!(k.as_str(), {alts}) {{\n\
                     return Err(::serde::Error::new(format!(\n\
                         concat!(\"unknown \", {owner:?}, \" field `{{}}` (expected one of: \", {expected:?}, \")\"), k)));\n\
                 }}\n\
             }}\n\
         }}\n"
    )
}

/// `field: <lookup in map `v`>`. An absent key takes `d.field` when
/// the container has `#[serde(default)]` (`d` is its `Default` value);
/// otherwise it routes through `Deserialize::absent`, so only `Option`
/// fields may be omitted.
fn named_field_init(owner: &str, fields: &[String], map_expr: &str, default: bool) -> String {
    fields
        .iter()
        .map(|f| {
            let absent = if default {
                format!("d.{f}")
            } else {
                format!("::serde::Deserialize::absent({f:?}).map_err(|e| e.ctx({owner:?}))?")
            };
            format!(
                "{f}: match {map_expr}.get({f:?}) {{\n\
                     Some(x) => ::serde::Deserialize::from_value(x)\n\
                         .map_err(|e| e.ctx(concat!({owner:?}, \".\", {f:?})))?,\n\
                     None => {absent},\n\
                 }},\n"
            )
        })
        .collect()
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::NamedStruct {
            name,
            fields,
            default,
        } => {
            let inits = named_field_init(name, fields, "v", *default);
            let strictness = unknown_key_check(name, fields, "v");
            let defaults = if *default {
                "let d = <Self as ::core::default::Default>::default();\n"
            } else {
                ""
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n\
                         if !matches!(v, ::serde::Value::Map(_)) {{\n\
                             return Err(::serde::Error::new(format!(\n\
                                 concat!(\"expected map for \", {name:?}, \", found {{}}\"), v.kind())));\n\
                         }}\n\
                         {strictness}\
                         {defaults}\
                         Ok({name} {{ {inits} }})\n\
                     }}\n\
                 }}"
            )
        }
        Item::TupleStruct { name, arity } => {
            let body = if *arity == 1 {
                format!(
                    "Ok({name}(::serde::Deserialize::from_value(v).map_err(|e| e.ctx({name:?}))?))"
                )
            } else {
                let items: String = (0..*arity)
                    .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                    .collect();
                format!(
                    "match v {{\n\
                         ::serde::Value::Seq(items) if items.len() == {arity} => Ok({name}({items})),\n\
                         other => Err(::serde::Error::new(format!(\n\
                             concat!(\"expected {arity}-element sequence for \", {name:?}, \", found {{}}\"), other.kind()))),\n\
                     }}"
                )
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => {
                            format!("{vn:?} => Ok({name}::{vn}),\n")
                        }
                        VariantShape::Tuple(1) => format!(
                            "{vn:?} => {{\n\
                                 let p = payload.ok_or_else(|| ::serde::Error::new(\n\
                                     concat!(\"variant \", {vn:?}, \" needs a payload\")))?;\n\
                                 Ok({name}::{vn}(::serde::Deserialize::from_value(p)\n\
                                     .map_err(|e| e.ctx(concat!({name:?}, \"::\", {vn:?})))?))\n\
                             }}\n"
                        ),
                        VariantShape::Tuple(n) => {
                            let items: String = (0..*n)
                                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                                .collect();
                            format!(
                                "{vn:?} => {{\n\
                                     let p = payload.ok_or_else(|| ::serde::Error::new(\n\
                                         concat!(\"variant \", {vn:?}, \" needs a payload\")))?;\n\
                                     match p {{\n\
                                         ::serde::Value::Seq(items) if items.len() == {n} => Ok({name}::{vn}({items})),\n\
                                         other => Err(::serde::Error::new(format!(\n\
                                             concat!(\"expected {n}-element sequence for \", {name:?}, \"::\", {vn:?}, \", found {{}}\"), other.kind()))),\n\
                                     }}\n\
                                 }}\n"
                            )
                        }
                        VariantShape::Named(fields) => {
                            let inits = named_field_init(vn, fields, "p", false);
                            let strictness =
                                unknown_key_check(&format!("{name}::{vn}"), fields, "p");
                            format!(
                                "{vn:?} => {{\n\
                                     let p = payload.ok_or_else(|| ::serde::Error::new(\n\
                                         concat!(\"variant \", {vn:?}, \" needs a payload\")))?;\n\
                                     if !matches!(p, ::serde::Value::Map(_)) {{\n\
                                         return Err(::serde::Error::new(format!(\n\
                                             concat!(\"expected map payload for \", {name:?}, \"::\", {vn:?}, \", found {{}}\"), p.kind())));\n\
                                     }}\n\
                                     {strictness}\
                                     Ok({name}::{vn} {{ {inits} }})\n\
                                 }}\n"
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n\
                         let (tag, payload): (&str, ::core::option::Option<&::serde::Value>) = match v {{\n\
                             ::serde::Value::Str(s) => (s.as_str(), ::core::option::Option::None),\n\
                             ::serde::Value::Map(m) if m.len() == 1 => (m[0].0.as_str(), ::core::option::Option::Some(&m[0].1)),\n\
                             other => return Err(::serde::Error::new(format!(\n\
                                 concat!(\"expected \", {name:?}, \" variant tag, found {{}}\"), other.kind()))),\n\
                         }};\n\
                         match tag {{\n\
                             {arms}\n\
                             other => Err(::serde::Error::new(format!(\n\
                                 concat!(\"unknown \", {name:?}, \" variant `{{}}`\"), other))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}
