"""In-process identity provider + resource server pair for self-contained runs.

Both servers bind ephemeral loopback ports and are wired to each other:
the resource server trusts the provider's issuer URL, and the provider
stamps the resource server's URL as the token audience.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass

from .idp import ClientRegistration, IdpConfig, IdpHandle, UserRecord
from .policy import PolicyTable, ToolRegistry
from .server import MCP_PATH, ServerConfig, ServerHandle, log as server_log
from .tools import default_policy, default_registry

LOOPBACK = "127.0.0.1:0"  # an ephemeral port on each side


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
    """Bind both listeners first, so each side is built knowing the other's final URL."""
    registry = registry or default_registry()
    policy = policy or default_policy(registry)
    with ExitStack() as unwind:
        idp = IdpHandle(LOOPBACK)
        unwind.callback(idp.stop)  # closes the listener, started or not
        server = ServerHandle(LOOPBACK, server_log)
        unwind.callback(server.server_close)  # not stop(): it closes the audit log launch opens
        resource_url = server.origin + MCP_PATH
        idp.launch(IdpConfig(LOOPBACK, audience=resource_url, users=users, clients=clients))
        server.launch(
            ServerConfig(LOOPBACK, idp.issuer, resource_url, audit_sink=audit_path),
            policy,
            registry,
        )
        unwind.pop_all()
    return LocalStack(idp=idp, server=server, audit_path=audit_path)
