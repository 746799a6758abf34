"""Suite-wide fixtures."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _session_cache_dir(tmp_path_factory):
    """The suite writes its rate reports into a directory of its own, never
    into the working tree."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path_factory.mktemp("codegen-cache")))
        yield
