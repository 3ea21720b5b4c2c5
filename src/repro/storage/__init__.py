"""NVM storage substrate: device model, layout, controller, partitions."""
