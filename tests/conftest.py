import hypothesis

# None of our properties are latency-sensitive; a per-example deadline
# would only make them flaky on a loaded machine.
hypothesis.settings.register_profile("chargelimit", deadline=None)
hypothesis.settings.load_profile("chargelimit")
