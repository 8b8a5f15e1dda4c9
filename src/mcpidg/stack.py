"""In-process identity provider + resource server pair for self-contained runs.

Both servers bind ephemeral loopback ports and are wired to each other:
the resource server trusts the provider's issuer URL, and the provider
stamps the resource server's URL as the token audience.
"""

from __future__ import annotations

from dataclasses import dataclass

from .idp import ClientRegistration, IdpConfig, IdpHandle, UserRecord, serve_idp
from .policy import PolicyTable, ToolRegistry
from .server import ServerConfig, ServerHandle, serve
from .tools import default_policy, default_registry


@dataclass
class LocalStack:
    idp: IdpHandle
    server: ServerHandle
    audit_path: str

    @property
    def mcp_url(self) -> str:
        return self.server.resource_url

    @property
    def issuer(self) -> str:
        return self.idp.issuer

    def stop(self) -> None:
        self.server.stop()
        self.idp.stop()

    def __enter__(self) -> "LocalStack":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_stack(
    audit_path: str,
    policy: PolicyTable | None = None,
    registry: ToolRegistry | None = None,
    users: tuple[UserRecord, ...] | None = None,
    clients: tuple[ClientRegistration, ...] | None = None,
) -> LocalStack:
    registry = registry or default_registry()
    policy = policy or default_policy(registry)
    idp = serve_idp(IdpConfig(
        "127.0.0.1:0", audience="(resolved after server start)", users=users, clients=clients
    ))
    try:
        server = serve(
            ServerConfig(
                bind_address="127.0.0.1:0",
                issuer_url=idp.issuer,
                audit_sink=audit_path,
            ),
            policy,
            registry,
        )
    except Exception:
        idp.stop()
        raise
    # No token can have been minted yet; bind the audience to the
    # now-known resource URL.
    idp.core.audience = server.resource_url
    return LocalStack(idp=idp, server=server, audit_path=audit_path)
