.PHONY: install test coverage bench bench-timing bench-ingest bench-enrich bench-share bench-store bench-idle bench-federation bench-fanout chaos tables examples metrics-demo obs-demo lint-metrics verify clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

coverage:
	pytest tests/ --cov=repro --cov-report=term-missing --cov-fail-under=82

bench:
	pytest benchmarks/

bench-timing:
	pytest benchmarks/ --benchmark-only

bench-ingest:
	PYTHONPATH=src pytest benchmarks/bench_x14_ingest_throughput.py -s --benchmark-disable

bench-enrich:
	PYTHONPATH=src pytest benchmarks/bench_x16_enrich_throughput.py -s --benchmark-disable

bench-share:
	PYTHONPATH=src pytest benchmarks/bench_x17_share_throughput.py -s --benchmark-disable

bench-store:
	PYTHONPATH=src pytest benchmarks/bench_x18_store_scaling.py -s --benchmark-disable

bench-idle:
	PYTHONPATH=src pytest benchmarks/bench_x19_idle_cost.py -s --benchmark-disable

bench-federation:
	PYTHONPATH=src pytest benchmarks/bench_x23_federation.py -s --benchmark-disable

bench-fanout:
	PYTHONPATH=src pytest benchmarks/bench_x20_fanout.py -s --benchmark-disable

chaos:
	PYTHONPATH=src pytest tests/test_resilience.py tests/test_chaos.py tests/test_parallel_share.py tests/test_federation.py tests/test_federation_backbone.py tests/test_sync_properties.py benchmarks/bench_x15_chaos_recovery.py benchmarks/bench_x23_federation.py -s --benchmark-disable

tables:
	pytest benchmarks/ -s --benchmark-disable

examples:
	python examples/quickstart.py
	python examples/rce_use_case.py
	python examples/intel_sharing.py
	python examples/feed_monitoring.py
	python examples/soc_operations.py

metrics-demo:
	PYTHONPATH=src python -m repro.cli metrics --cycles 3

obs-demo:
	rm -f /tmp/caop-obs-demo.sqlite
	PYTHONPATH=src python -m repro.cli run --cycles 2 --entries 20 --store /tmp/caop-obs-demo.sqlite
	PYTHONPATH=src python -m repro.cli trace --latest /tmp/caop-obs-demo.sqlite
	PYTHONPATH=src python -m repro.cli slo --cycles 4 --entries 20
	rm -f /tmp/caop-obs-demo.sqlite

lint-metrics:
	PYTHONPATH=src python -m repro.obs.lint

verify: test bench examples metrics-demo obs-demo lint-metrics

clean:
	rm -rf .pytest_cache .hypothesis build *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
