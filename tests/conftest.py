def pytest_report_header(config):
    # pyproject's pythonpath comes before PYTHONPATH; name the source under test.
    import multijames

    return f"multijames: {multijames.__file__}"
