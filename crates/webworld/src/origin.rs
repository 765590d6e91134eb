//! The shared origin-server handler: one [`HttpHandler`] implementation
//! serves every address in the simulated world (virtual hosting), with
//! behaviour selected by hostname class — site content, CDN assets, ad
//! exchanges, vendor endpoints, DoH resolvers.

use std::fmt::Write as _;

use panoptes_http::hash::FastMap;
use panoptes_http::headers::vocab;
use panoptes_http::json;
use panoptes_http::netaddr::IpAddr;
use panoptes_http::url::Url;
use panoptes_http::{Atom, Request, Response, StatusCode};
use panoptes_simnet::net::{FlowContext, HttpHandler, NetError, Network};

use crate::site::SiteSpec;
use crate::vendors::{endpoint, Purpose};

/// Content index: `host → path → pre-rendered response`, plus redirect
/// entries, built from the site specs. Nested maps so a request-path
/// lookup probes with borrowed `&str` keys — the former `(String,
/// String)` tuple keys forced two fresh `String`s per served request.
///
/// Responses are rendered once at build time (status line, filler body,
/// `content-length`, `content-type`, session cookie); serving a request
/// clones the template instead of re-deriving its headers. The body is
/// a static view of the filler and the content type and cookie are
/// static vocabulary atoms, so those clones copy pointers; only the
/// template's `content-length` value, a world value, is a
/// reference-count bump, and the header `Vec` is copied.
#[derive(Debug, Default)]
pub struct Directory {
    resources: FastMap<String, FastMap<String, PreparedResource>>,
    redirects: FastMap<String, FastMap<String, Atom>>,
    resource_count: usize,
    /// Deep-tail landing hosts → document size. Tail sites are served
    /// formulaically — their static resources carry the byte size in the
    /// path (`/s/{size}/...`) — so a 100k-site world stores one `u32`
    /// per tail site here, keyed by the site's host atom, instead of ~10
    /// pre-rendered templates each.
    tail_documents: FastMap<Atom, u32>,
}

/// One indexed resource: its declared size and the response template
/// every request for it is answered with.
#[derive(Debug)]
struct PreparedResource {
    size: u32,
    response: Response,
}

impl Directory {
    /// Builds the index from the generated site population. A resource
    /// is indexed under its URL's path, without the query, as an origin
    /// routes on the path.
    pub fn from_sites(sites: &[SiteSpec]) -> Directory {
        let mut dir = Directory::default();
        for site in sites {
            if site.tail {
                dir.tail_documents.insert(site.host.clone(), site.page.document_size);
                continue;
            }
            let landing_path = site.url.path();
            dir.insert_resource(&site.host, landing_path, site.page.document_size);
            if site.apex_redirect {
                // The apex entry URL answers with the landing URL's text.
                let landing = Url::https_at(&site.host, landing_path);
                dir.redirects
                    .entry(site.domain.clone())
                    .or_default()
                    .insert(landing_path.to_owned(), Atom::owned(landing.as_str()));
            }
            for r in &site.page.resources {
                dir.insert_resource(r.url.host(), r.url.path(), r.size);
            }
        }
        dir
    }

    fn insert_resource(&mut self, host: &str, path: &str, size: u32) {
        let paths = self.resources.entry(host.to_owned()).or_default();
        let prepared = PreparedResource { size, response: render_content(path, size) };
        if paths.insert(path.to_owned(), prepared).is_none() {
            self.resource_count += 1;
        }
    }

    /// The redirect target of `path` on `host`, if one is configured.
    pub fn redirect_of(&self, host: &str, path: &str) -> Option<&Atom> {
        self.redirects.get(host)?.get(path)
    }

    /// Looks up the size of `path` on `host` (query string ignored, as an
    /// origin would route on the path).
    pub fn size_of(&self, host: &str, path: &str) -> Option<u32> {
        Some(self.resources.get(host)?.get(path)?.size)
    }

    /// The pre-rendered response for `path` on `host`, if indexed.
    pub fn response_for(&self, host: &str, path: &str) -> Option<&Response> {
        Some(&self.resources.get(host)?.get(path)?.response)
    }

    /// Serves `path` on `host`: a clone of the pre-rendered template for
    /// head sites, or a formulaically rendered response for deep-tail
    /// hosts (document size from the one-`u32` tail index, resource
    /// sizes decoded from their size-addressed `/s/{size}/...` paths).
    pub fn serve(&self, host: &str, path: &str) -> Option<Response> {
        if let Some(resp) = self.response_for(host, path) {
            return Some(resp.clone());
        }
        let document = *self.tail_documents.get(host)?;
        if path == "/" {
            return Some(render_content(path, document));
        }
        Some(render_content(path, tail_path_size(path)?))
    }

    /// Number of indexed resources.
    pub fn len(&self) -> usize {
        self.resource_count
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }
}

/// The world's single origin handler.
pub struct OriginServer {
    directory: Directory,
}

impl OriginServer {
    /// Builds the handler over a content index.
    pub fn new(directory: Directory) -> OriginServer {
        OriginServer { directory }
    }

    fn vendor_response(&self, purpose: Purpose, net: &Network, req: &Request) -> Response {
        let v = vocab();
        match purpose {
            Purpose::Doh => {
                // Resolve for real against the zone so the client can
                // proceed — and the exchange is a genuine HTTPS flow.
                let name = req.url.query_param("name").unwrap_or_default();
                let body = doh_answer(&name, net.resolve_silent(&name));
                Response::ok(body).with_header(v.content_type.clone(), v.dns_json.clone())
            }
            Purpose::History | Purpose::Telemetry => {
                Response::status(StatusCode::NO_CONTENT)
            }
            Purpose::Update => Response::sized(2_048),
            Purpose::Config => Response::ok(r#"{"features":{},"ttl":3600}"#)
                .with_header(v.content_type.clone(), v.json.clone()),
            Purpose::SiteCheck => Response::ok(r#"{"verdict":"clean"}"#)
                .with_header(v.content_type.clone(), v.json.clone()),
            Purpose::StartPage => Response::sized(15_000),
            Purpose::AdSdk => Response::ok(
                r#"{"bid":{"price":0.42,"creative":"..."},"ttl":300}"#,
            )
            .with_header(v.content_type.clone(), v.json.clone())
            .with_header(v.set_cookie.clone(), v.ad_cookie.clone()),
            Purpose::SocialGraph => Response::ok(r#"{"data":[],"paging":{}}"#)
                .with_header(v.content_type.clone(), v.json.clone()),
        }
    }
}

impl HttpHandler for OriginServer {
    fn handle(
        &self,
        net: &Network,
        _ctx: &FlowContext,
        req: Request,
    ) -> Result<Response, NetError> {
        let host = req.url.host();
        let path = req.url.path();

        // Vendor / third-party service endpoints.
        if let Some(ep) = endpoint(host) {
            return Ok(self.vendor_response(ep.purpose, net, &req));
        }

        // Apex → www redirects.
        if let Some(location) = self.directory.redirect_of(host, path) {
            return Ok(Response::status(StatusCode::MOVED_PERMANENTLY)
                .with_header(vocab().location.clone(), location.clone()));
        }

        // Site / CDN content: template clone for head sites, formulaic
        // rendering for deep-tail hosts.
        if let Some(resp) = self.directory.serve(host, path) {
            return Ok(resp);
        }

        // Ad exchanges and trackers accept any path (bid endpoints are
        // dynamic); recognize them by registrable domain (borrowed — no
        // per-request allocation).
        let reg = panoptes_http::url::registrable_suffix(host);
        if crate::thirdparty::AD_NETWORKS.contains(&reg) {
            return Ok(self.vendor_response(Purpose::AdSdk, net, &req));
        }
        if crate::thirdparty::TRACKERS.contains(&reg) {
            return Ok(Response::status(StatusCode::NO_CONTENT));
        }

        Ok(Response::status(StatusCode::NOT_FOUND))
    }
}

/// The JSON body of a DoH answer for `name`, resolved to `ip`
/// (`0.0.0.0` when the name does not resolve), written into one
/// `String`: the bytes [`json::to_string`] writes for the object
/// `{"Status":0,"Question":{"name":…},"Answer":[{"type":1,"data":…}]}`.
fn doh_answer(name: &str, ip: Option<IpAddr>) -> String {
    const HEAD: &str = r#"{"Status":0,"Question":{"name":"#;
    const ANSWER: &str = r#"},"Answer":[{"type":1,"data":""#;
    const TAIL: &str = r#""}]}"#;
    // The fixed parts, the quoted name and the longest IPv4 address.
    let mut body = String::with_capacity(HEAD.len() + ANSWER.len() + TAIL.len() + name.len() + 17);
    body.push_str(HEAD);
    json::write_string(name, &mut body);
    body.push_str(ANSWER);
    match ip {
        Some(ip) => write!(body, "{ip}").expect("writing to a String cannot fail"),
        None => body.push_str("0.0.0.0"),
    }
    body.push_str(TAIL);
    body
}

/// Renders the response template for a content path: sized filler body,
/// `content-type` by extension, first-party session cookie on document
/// loads. Exactly what the handler used to assemble per request.
fn render_content(path: &str, size: u32) -> Response {
    let v = vocab();
    let mut resp = Response::sized(size as usize);
    resp.headers.set(v.content_type.clone(), content_type_for(path).clone());
    if path == "/" || !path.contains('.') {
        resp.headers.append(v.set_cookie.clone(), v.session_cookie.clone());
    }
    resp
}

/// Decodes the byte size a tail resource path advertises
/// (`/s/18234/app3.js` → `18234`).
fn tail_path_size(path: &str) -> Option<u32> {
    path.strip_prefix("/s/")?.split('/').next()?.parse().ok()
}

fn content_type_for(path: &str) -> &'static Atom {
    let v = vocab();
    if path.ends_with(".js") {
        &v.javascript
    } else if path.ends_with(".css") {
        &v.css
    } else if path.ends_with(".jpg") || path.ends_with(".png") {
        &v.jpeg
    } else if path.starts_with("/api/") {
        &v.json
    } else {
        &v.html
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};

    #[test]
    fn directory_indexes_documents_and_resources() {
        let sites = generate(&GeneratorConfig { popular: 5, sensitive: 4, ..Default::default() });
        let dir = Directory::from_sites(&sites);
        assert!(!dir.is_empty());
        let site = &sites[0];
        assert_eq!(dir.size_of(&site.host, site.url.path()), Some(site.page.document_size));
        let r = &site.page.resources[0];
        assert_eq!(dir.size_of(r.url.host(), r.url.path()), Some(r.size));
        assert_eq!(dir.size_of("nowhere.example", "/"), None);
    }

    /// The object the DoH answer was serialised from before its body was
    /// written directly: the reference its bytes must equal.
    fn doh_tree(name: &str, answer: &str) -> String {
        use panoptes_http::json::Value;
        json::to_string(&Value::object(vec![
            ("Status", Value::Number(0.0)),
            ("Question", Value::object(vec![("name", Value::str(name))])),
            (
                "Answer",
                Value::Array(vec![Value::object(vec![
                    ("type", Value::Number(1.0)),
                    ("data", Value::str(answer)),
                ])]),
            ),
        ]))
    }

    #[test]
    fn doh_answers_are_the_bytes_of_the_json_tree() {
        use crate::World;
        use panoptes_simnet::dns::DohProvider;
        use panoptes_simnet::tls::{CaId, CertificateAuthority};
        let world =
            World::build(&GeneratorConfig { popular: 3, sensitive: 2, ..Default::default() });
        let net = Network::new(
            CertificateAuthority::new(CaId::public_web_pki()),
            IpAddr::new(192, 168, 1, 50),
        );
        world.install(&net);
        let server = OriginServer::new(Directory::default());
        let routed = world.sites[0].host.as_str();
        let ip = world.ip_of(routed).expect("a site's host is routed").to_string();
        let names = [
            (routed, ip.as_str()),
            ("nowhere.example", "0.0.0.0"),
            ("q\"uote\\back.example", "0.0.0.0"),
        ];
        for (name, answer) in names {
            let req = DohProvider::Google.query_request(name);
            assert_eq!(req.url.query_param("name").as_deref(), Some(name));
            let resp = server.vendor_response(Purpose::Doh, &net, &req);
            assert_eq!(&resp.body[..], doh_tree(name, answer).as_bytes(), "{name}");
        }
    }

    #[test]
    fn content_types() {
        assert_eq!(content_type_for("/a.js"), "application/javascript");
        assert_eq!(content_type_for("/a.css"), "text/css");
        assert_eq!(content_type_for("/img/a.jpg"), "image/jpeg");
        assert_eq!(content_type_for("/api/feed"), "application/json");
        assert_eq!(content_type_for("/"), "text/html");
    }
}
